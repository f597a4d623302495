//! Parsers and writers for tree-structured text formats.
//!
//! Two formats are supported:
//!
//! * **Bracket notation** — the format used by most tree-edit-distance
//!   tooling: `{label{child}{child}}`. Labels may contain any characters;
//!   `{`, `}` and `\` must be escaped with a backslash.
//! * **XML-ish documents** — a deliberately small subset of XML sufficient
//!   for the paper's motivating workloads (Figure 1): elements, text nodes,
//!   self-closing tags. Attributes, comments, CDATA, processing
//!   instructions and doctypes are skipped; entities are not expanded.

use crate::error::ParseError;
use crate::label::LabelInterner;
use crate::tree::{NodeId, Tree, TreeBuilder};

/// Parses bracket notation (`{a{b}{c}}`) into a [`Tree`], interning labels.
///
/// ```
/// use tsj_tree::{parse_bracket, LabelInterner};
/// let mut labels = LabelInterner::new();
/// let tree = parse_bracket("{a{b{d}}{c}}", &mut labels).unwrap();
/// assert_eq!(tree.len(), 4);
/// ```
pub fn parse_bracket(input: &str, labels: &mut LabelInterner) -> Result<Tree, ParseError> {
    let bytes = input.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    if pos >= bytes.len() || bytes[pos] != b'{' {
        return Err(ParseError::new(pos, "expected '{'"));
    }
    pos += 1;
    let label_text = parse_label_text(input, bytes, &mut pos)?;
    let mut builder = TreeBuilder::new();
    // The innermost open node; its parent is the next one out.
    let mut open = Some(builder.root(labels.intern(&label_text)));
    while let Some(node) = open {
        skip_ws(bytes, &mut pos);
        if pos < bytes.len() && bytes[pos] == b'{' {
            pos += 1;
            let label_text = parse_label_text(input, bytes, &mut pos)?;
            open = Some(builder.child(node, labels.intern(&label_text)));
        } else {
            expect_close(bytes, &mut pos)?;
            open = builder.parent(node);
        }
    }
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(ParseError::new(pos, "trailing input after tree"));
    }
    Ok(builder.build())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && bytes[*pos].is_ascii_whitespace() {
        *pos += 1;
    }
}

fn expect_close(bytes: &[u8], pos: &mut usize) -> Result<(), ParseError> {
    skip_ws(bytes, pos);
    if *pos >= bytes.len() || bytes[*pos] != b'}' {
        return Err(ParseError::new(*pos, "expected '}'"));
    }
    *pos += 1;
    Ok(())
}

/// Reads label text up to an unescaped `{` or `}`.
fn parse_label_text(input: &str, bytes: &[u8], pos: &mut usize) -> Result<String, ParseError> {
    let mut label = String::new();
    while *pos < bytes.len() {
        match bytes[*pos] {
            b'{' | b'}' => break,
            b'\\' => {
                // Escape sequence: take the next character literally.
                *pos += 1;
                let c = input[*pos..]
                    .chars()
                    .next()
                    .ok_or_else(|| ParseError::new(*pos, "dangling escape"))?;
                label.push(c);
                *pos += c.len_utf8();
            }
            _ => {
                // Advance over a full UTF-8 character.
                let c = input[*pos..]
                    .chars()
                    .next()
                    .expect("pos is always on a char boundary");
                label.push(c);
                *pos += c.len_utf8();
            }
        }
    }
    Ok(label)
}

/// Serializes a tree to bracket notation, escaping `{`, `}` and `\`.
///
/// One pass in preorder: before each node, the open nodes from the one
/// before it up to (not including) its parent are closed, and the last
/// node's path to the root is closed at the end.
pub fn to_bracket(tree: &Tree, labels: &LabelInterner) -> String {
    let mut out = String::with_capacity(tree.len() * 4);
    let up_from = |node: NodeId| std::iter::successors(Some(node), |&v| tree.parent(v));
    for node in tree.node_ids() {
        if let Some(prev) = node.index().checked_sub(1).map(NodeId::from_index) {
            let parent = tree.parent(node);
            out.extend(
                up_from(prev)
                    .take_while(|&v| Some(v) != parent)
                    .map(|_| '}'),
            );
        }
        out.push('{');
        let text = labels.resolve(tree.label(node)).unwrap_or("");
        for c in text.chars() {
            if matches!(c, '{' | '}' | '\\') {
                out.push('\\');
            }
            out.push(c);
        }
    }
    let last = NodeId::from_index(tree.len() - 1);
    out.extend(up_from(last).map(|_| '}'));
    out
}

/// Parses a small XML-like document into a [`Tree`].
///
/// Element tags and trimmed text runs become labeled nodes, matching the
/// paper's Figure 1 ("tags and text are considered as labels"). The
/// document must have a single root element.
///
/// ```
/// use tsj_tree::{parse_xmlish, LabelInterner};
/// let mut labels = LabelInterner::new();
/// let doc = "<html><title>Test page</title><body><p>hi</p></body></html>";
/// let tree = parse_xmlish(doc, &mut labels).unwrap();
/// assert_eq!(tree.len(), 6);
/// ```
pub fn parse_xmlish(input: &str, labels: &mut LabelInterner) -> Result<Tree, ParseError> {
    let mut builder = TreeBuilder::new();
    // Stack of currently-open elements.
    let mut stack: Vec<(NodeId, String)> = Vec::new();
    let mut root_done = false;
    let bytes = input.as_bytes();
    let mut pos = 0usize;

    while pos < bytes.len() {
        if bytes[pos] == b'<' {
            if input[pos..].starts_with("<!--") {
                pos = find_or_err(input, pos, "-->")? + 3;
            } else if input[pos..].starts_with("<?") {
                pos = find_or_err(input, pos, "?>")? + 2;
            } else if input[pos..].starts_with("<!") {
                pos = find_or_err(input, pos, ">")? + 1;
            } else if input[pos..].starts_with("</") {
                let end = find_or_err(input, pos, ">")?;
                let name = input[pos + 2..end].trim();
                let (_, open_name) = stack
                    .pop()
                    .ok_or_else(|| ParseError::new(pos, "close tag without open tag"))?;
                if open_name != name {
                    return Err(ParseError::new(
                        pos,
                        format!("mismatched close tag: expected </{open_name}>, got </{name}>"),
                    ));
                }
                pos = end + 1;
            } else {
                let end = find_or_err(input, pos, ">")?;
                let self_closing = input[..end].ends_with('/');
                let inner_end = if self_closing { end - 1 } else { end };
                let body = input[pos + 1..inner_end].trim();
                // Tag name = text up to the first whitespace (attrs ignored).
                let name = body.split_whitespace().next().unwrap_or("");
                if name.is_empty() {
                    return Err(ParseError::new(pos, "empty tag name"));
                }
                let label = labels.intern(name);
                let id = match stack.last() {
                    Some(&(parent, _)) => builder.child(parent, label),
                    None => {
                        if root_done {
                            return Err(ParseError::new(pos, "multiple root elements"));
                        }
                        root_done = true;
                        builder.root(label)
                    }
                };
                if !self_closing {
                    stack.push((id, name.to_string()));
                }
                pos = end + 1;
            }
        } else {
            let end = input[pos..]
                .find('<')
                .map(|off| pos + off)
                .unwrap_or(bytes.len());
            let text = input[pos..end].trim();
            if !text.is_empty() {
                let label = labels.intern(text);
                match stack.last() {
                    Some(&(parent, _)) => {
                        builder.child(parent, label);
                    }
                    None => {
                        return Err(ParseError::new(pos, "text outside of root element"));
                    }
                }
            }
            pos = end;
        }
    }

    if let Some((_, name)) = stack.pop() {
        return Err(ParseError::new(pos, format!("unclosed element <{name}>")));
    }
    if !root_done {
        return Err(ParseError::new(0, "no root element"));
    }
    Ok(builder.build())
}

fn find_or_err(input: &str, from: usize, pat: &str) -> Result<usize, ParseError> {
    input[from..]
        .find(pat)
        .map(|off| from + off)
        .ok_or_else(|| ParseError::new(from, format!("expected '{pat}'")))
}

/// Renders a tree as an indented outline, resolving labels when possible.
/// Intended for debugging and examples, not round-tripping.
pub fn to_outline(tree: &Tree, labels: &LabelInterner) -> String {
    let mut out = String::new();
    let depths = tree.depths();
    for node in tree.preorder() {
        for _ in 0..depths[node.index()] {
            out.push_str("  ");
        }
        match labels.resolve(tree.label(node)) {
            Some(text) => out.push_str(text),
            None => out.push_str(&format!("{}", tree.label(node))),
        }
        out.push('\n');
    }
    out
}

/// Convenience: the label sequence of a bracket expression without building
/// a tree (used by tests).
pub fn bracket_labels(input: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_label = false;
    let mut chars = input.chars();
    while let Some(c) = chars.next() {
        match c {
            '{' => {
                if in_label && !current.is_empty() {
                    out.push(std::mem::take(&mut current));
                }
                in_label = true;
                current.clear();
            }
            '}' => {
                if in_label && !current.is_empty() {
                    out.push(std::mem::take(&mut current));
                }
                in_label = false;
            }
            '\\' => {
                if let Some(next) = chars.next() {
                    current.push(next);
                }
            }
            _ => {
                if in_label {
                    current.push(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_bracket() {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket("{a{b}{c{d}}}", &mut labels).unwrap();
        assert_eq!(tree.len(), 4);
        tree.validate().unwrap();
        let root = tree.root();
        assert_eq!(labels.resolve(tree.label(root)), Some("a"));
        assert_eq!(tree.children(root).count(), 2);
        let c = tree.children(root).nth(1).unwrap();
        assert_eq!(labels.resolve(tree.label(c)), Some("c"));
        assert_eq!(tree.children(c).count(), 1);
    }

    #[test]
    fn bracket_round_trip() {
        let mut labels = LabelInterner::new();
        let text = "{root{left{ll}{lr}}{right}}";
        let tree = parse_bracket(text, &mut labels).unwrap();
        assert_eq!(to_bracket(&tree, &labels), text);
    }

    #[test]
    fn bracket_escapes() {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket(r"{we\{ird\\{child}}", &mut labels).unwrap();
        assert_eq!(tree.len(), 2);
        assert_eq!(labels.resolve(tree.label(tree.root())), Some(r"we{ird\"));
        let rendered = to_bracket(&tree, &labels);
        let mut labels2 = LabelInterner::new();
        let reparsed = parse_bracket(&rendered, &mut labels2).unwrap();
        assert_eq!(reparsed.len(), 2);
        assert_eq!(
            labels2.resolve(reparsed.label(reparsed.root())),
            Some(r"we{ird\")
        );
    }

    #[test]
    fn bracket_whitespace_tolerated() {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket("  {a {b} {c} }  ", &mut labels).unwrap();
        assert_eq!(tree.len(), 3);
    }

    #[test]
    fn bracket_errors() {
        let mut labels = LabelInterner::new();
        assert!(parse_bracket("", &mut labels).is_err());
        assert!(parse_bracket("{a", &mut labels).is_err());
        assert!(parse_bracket("{a}}", &mut labels).is_err());
        assert!(parse_bracket("{a}{b}", &mut labels).is_err());
        assert!(parse_bracket("a{b}", &mut labels).is_err());
    }

    #[test]
    fn parse_figure1_html() {
        let mut labels = LabelInterner::new();
        let doc = r#"
            <html>
              <title>Test page</title>
              <body>
                <p>This is a <dfn>dfn</dfn> tag example.</p>
              </body>
            </html>"#;
        let tree = parse_xmlish(doc, &mut labels).unwrap();
        // Figure 1: html, title, "Test page", body, p, "This is a", dfn,
        // dfn(text), "tag example." = 9 nodes.
        assert_eq!(tree.len(), 9);
        tree.validate().unwrap();
        assert_eq!(labels.resolve(tree.label(tree.root())), Some("html"));
    }

    #[test]
    fn xml_self_closing_and_attrs() {
        let mut labels = LabelInterner::new();
        let tree = parse_xmlish(r#"<a x="1"><b/><c key="v">text</c></a>"#, &mut labels).unwrap();
        assert_eq!(tree.len(), 4);
        let root = tree.root();
        assert_eq!(tree.children(root).count(), 2);
    }

    #[test]
    fn xml_skips_comments_and_decls() {
        let mut labels = LabelInterner::new();
        let tree = parse_xmlish(
            "<?xml version=\"1.0\"?><!DOCTYPE a><a><!-- note --><b/></a>",
            &mut labels,
        )
        .unwrap();
        assert_eq!(tree.len(), 2);
    }

    #[test]
    fn xml_errors() {
        let mut labels = LabelInterner::new();
        assert!(parse_xmlish("<a><b></a>", &mut labels).is_err());
        assert!(parse_xmlish("<a></a><b></b>", &mut labels).is_err());
        assert!(parse_xmlish("text only", &mut labels).is_err());
        assert!(parse_xmlish("<a>", &mut labels).is_err());
        assert!(parse_xmlish("", &mut labels).is_err());
    }

    #[test]
    fn outline_renders_every_node() {
        let mut labels = LabelInterner::new();
        let tree = parse_bracket("{a{b}{c}}", &mut labels).unwrap();
        let outline = to_outline(&tree, &labels);
        assert_eq!(outline.lines().count(), 3);
        assert!(outline.contains("a\n"));
    }

    #[test]
    fn bracket_labels_helper() {
        assert_eq!(bracket_labels("{a{b}{c}}"), vec!["a", "b", "c"]);
    }
}
