#!/usr/bin/env bash
# The three numbers a PR states (ROADMAP, standing constraints), counted
# one way: source lines per crate, the join-stack subtotal, all Rust
# outside benchmark/ vendor/ target/, and the test-group count — plus
# `options`, the public fields of the ten config structs (ROADMAP 4(c):
# they "come out with fewer fields than they went in"), and `paths`, how
# many places in the join stack still sequence the sharded probe step or
# hold a frozen side's parts (ROADMAP 3: each should be written once) —
# and, expected 0, how many still copy a stored tree's subgraphs or
# mention a replay log in tsj-shard (deletion is the index's own sweep),
# and how many places in partsj box a component's nodes on their own (a
# shape lives once, in the index's arena; a tree's components travel in
# one flat `Partition`), and how many bring back a per-node child `Vec`
# in tsj-tree or 8-byte Zhang–Shasha arrays in tsj-ted (a tree is two
# flat `u32` columns, 8 bytes a node) or a stored child-list column in
# it (children are read off the parent column) or an `Option<NodeId>`
# pointer column (ids are preorder, so the LC-RS view derives its links
# from the tree's columns), or a second self-join in
# tsj-shard (the self-join is `partsj_join`; the pool serves the frozen
# R×S side only), or a `partsj` join loop that sequences the probe step
# itself (they run on `Prober`), or a side list that is not a `SideList`
# or one held outside a `SubgraphIndex` (an index owns its small trees)
# — and, expected 1, how many structs in tsj-cluster and tsj-catalogd hold
# router state (`Cluster` and `ClusterClient` share one `Router`).
#
#   scripts/loc.sh              # line counts + test groups (runs cargo test)
#   scripts/loc.sh --no-tests   # line counts only
set -euo pipefail
cd "$(dirname "$0")/.."

shopt -s nullglob
src_lines() { cat "crates/$1"/src/*.rs "crates/$1"/src/bin/*.rs | wc -l; }

stack=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  lines=$(src_lines "$crate")
  printf '%-10s %6d\n' "$crate" "$lines"
  case "$crate" in core | shard | catalog | cluster) stack=$((stack + lines)) ;; esac
done
printf '%-32s %6d\n' 'core+shard+catalog+cluster src' "$stack"
printf '%-32s %6d\n' 'tests (crates/*/tests + tests/)' \
  "$(find crates/*/tests tests -name '*.rs' -print0 | xargs -0 cat | wc -l)"
printf '%-32s %6d\n' 'all *.rs (no benchmark/vendor)' \
  "$(find . -name '*.rs' -not -path './benchmark/*' -not -path './vendor/*' \
    -not -path './target/*' -not -path './.bench_build/*' -print0 | xargs -0 cat | wc -l)"

# Public fields of `pub struct $1` (its body runs to the first `^}`).
pub_fields() { sed -n "/^pub struct $1 {/,/^}/p" crates/*/src/*.rs | grep -c '^    pub '; }

options=0
for config in PartSjConfig VerifyConfig ShardConfig ObsConfig ClusterConfig RetryPolicy \
  FaultPlan ClientConfig PoolConfig ServerConfig; do
  fields=$(pub_fields "$config")
  printf '  %-14s %2d\n' "$config" "$fields"
  options=$((options + fields))
done
printf '%-32s %6d\n' 'options (pub config fields)' "$options"

# Non-comment lines matching $1 in the non-test part (everything before
# `#[cfg(test)]`) of the given files.
sites() {
  local pattern=$1 file
  shift
  for file in "$@"; do sed '/^#\[cfg(test)\]/,$d' "$file"; done |
    grep -vE '^\s*//' | grep -cE "$pattern" || true
}
path_row() { printf '  %-36s %2d\n' "$1" "$(sites "${@:2}")"; }
stack_src=(crates/{shard,catalog,cluster}/src/*.rs)
# $2… without the file $1.
without() { local skip=$1 file; shift; for file in "$@"; do [ "$file" = "$skip" ] || echo "$file"; done; }
mapfile -t index_users < <(without crates/shard/src/index.rs "${stack_src[@]}")
echo 'paths (non-test src lines; shard+catalog+cluster unless named)'
path_row 'side-list scans' '\.scan(_classes)?\(' "${stack_src[@]}"
path_row 'sharded probe calls outside the index' '\.probe_(tree|shard|window)\(' "${index_users[@]}"
path_row 'probe_tree_nodes( in tsj-cluster' 'probe_tree_nodes\(' crates/cluster/src/*.rs
path_row 'left_data: field declarations' '^    (pub(\([a-z]+\))? )?left_data: ' "${stack_src[@]}"
path_row 'side-list rebuilds (.list_small()' '\.push_if_small\(|\.list_small\(' "${index_users[@]}"
path_row 'stored-subgraph copies in tsj-shard' 'subgraphs\.clone\(\)|replay' crates/shard/src/*.rs
path_row 'boxed component copies in partsj' 'Box<\[SgNode\]>' crates/core/src/*.rs
path_row 'per-node child Vecs in tsj-tree' 'struct NodeData|children: Vec<NodeId>' crates/tree/src/tree.rs
path_row 'child-list columns in tsj-tree' 'child_start|kids:' crates/tree/src/tree.rs
path_row 'usize Zhang–Shasha arrays in tsj-ted' '(lld|keyroots): Vec<usize>' crates/ted/src/ted_tree.rs
path_row 'Option<NodeId> columns in tsj-tree' 'Vec<Option<(NodeId|\(NodeId)' crates/tree/src/*.rs
path_row 'self-join forms in tsj-shard' 'sharded_join|SelfJoin|JoinSide|my_rank' crates/shard/src/*.rs
path_row 'hand-sequenced probe steps in partsj' \
  'Candidates::new|scan_small_trees\(|resolve_layers\(|probe_tree_nodes\(|partition_tree_with\(' \
  crates/core/src/{join,rs_join,topk}.rs
path_row 'raw side-list maps' 'FxHashMap<u32, Vec<TreeIdx>>' crates/{core,shard}/src/*.rs
mapfile -t side_owners < <(without crates/core/src/index.rs crates/{core,shard,catalog,cluster}/src/*.rs)
path_row 'side lists held outside an index' '^    (pub(\([a-z]+\))? )?[a-z_]+: SideList' "${side_owners[@]}"
path_row 'router state holders in cluster+catalogd' '^    (pub(\([a-z]+\))? )?health: ' \
  crates/{cluster,catalogd}/src/*.rs

if [ "${1:-}" != "--no-tests" ]; then
  printf '%-32s %6d\n' 'test groups' "$(cargo test -q 2>&1 | grep -c '^test result')"
fi
