//! Nice tree decompositions.
//!
//! Dynamic programming over a tree decomposition is much simpler when the
//! decomposition is *nice*: every node is one of
//!
//! * a **leaf** with an empty bag,
//! * an **introduce** node whose bag adds exactly one vertex to its child's,
//! * a **forget** node whose bag removes exactly one vertex from its child's,
//! * a **join** node with exactly two children carrying the same bag.
//!
//! Every tree decomposition of width `w` can be converted into a nice one of
//! the same width with `O(w · n)` nodes. The weighted-model-counting backend
//! in `stuc-circuit` and the automaton run in `stuc-automata` both consume
//! this form.

use crate::decomposition::{BagId, TreeDecomposition};
use crate::graph::VertexId;
use std::collections::BTreeSet;

/// The kind of a node in a [`NiceDecomposition`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NiceNodeKind {
    /// A leaf with an empty bag.
    Leaf,
    /// Adds `vertex` to the child's bag.
    Introduce { vertex: VertexId, child: usize },
    /// Removes `vertex` from the child's bag.
    Forget { vertex: VertexId, child: usize },
    /// Combines two children with identical bags.
    Join { left: usize, right: usize },
}

/// One node of a nice decomposition: its kind plus its bag content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NiceNode {
    /// The structural kind of the node.
    pub kind: NiceNodeKind,
    /// The bag carried by this node.
    pub bag: BTreeSet<VertexId>,
}

impl NiceNode {
    /// The bag as a sorted vector of raw vertex indices — the layout sweep
    /// plans index their dense tables by (bit `i` of a table mask is the
    /// value of `bag_indices()[i]`).
    pub fn bag_indices(&self) -> Vec<usize> {
        self.bag.iter().map(|v| v.index()).collect()
    }
}

/// A nice tree decomposition, stored as a flat arena with an explicit root.
///
/// Children always have smaller indices than their parents, so iterating
/// `0..len()` visits nodes bottom-up — exactly the order dynamic programs
/// need.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NiceDecomposition {
    nodes: Vec<NiceNode>,
    root: usize,
}

impl NiceDecomposition {
    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the decomposition has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Index of the root node.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Access a node by index.
    pub fn node(&self, i: usize) -> &NiceNode {
        &self.nodes[i]
    }

    /// Iterate over `(index, node)` bottom-up (children before parents).
    pub fn iter_bottom_up(&self) -> impl Iterator<Item = (usize, &NiceNode)> {
        self.nodes.iter().enumerate()
    }

    /// The width of the nice decomposition.
    pub fn width(&self) -> usize {
        self.max_bag_len().saturating_sub(1)
    }

    /// Size of the largest bag (width + 1 on non-empty decompositions) —
    /// what sweep-plan construction checks against its dense-table budget.
    pub fn max_bag_len(&self) -> usize {
        self.nodes.iter().map(|n| n.bag.len()).max().unwrap_or(0)
    }

    /// Converts a (rooted) tree decomposition into nice form.
    ///
    /// The result has the same width. If `td` is empty, the result is a
    /// single leaf node so that dynamic programs always have a root to read.
    pub fn from_decomposition(td: &TreeDecomposition) -> Self {
        let mut builder = Builder { nodes: Vec::new() };
        if td.bag_count() == 0 {
            let root = builder.push(NiceNodeKind::Leaf, BTreeSet::new());
            return NiceDecomposition {
                nodes: builder.nodes,
                root,
            };
        }

        // Root the decomposition at bag 0 and collect children lists.
        let root_bag = BagId(0);
        let children = children_under(td, root_bag);

        // Post-order over bags (children before parents) computed iteratively
        // to avoid recursion-depth limits on path-shaped decompositions.
        let order = post_order(root_bag, &children);

        // top[b] = index of the nice node whose bag equals bag(b) and which
        // summarises the whole subtree rooted at b.
        let mut top: Vec<Option<usize>> = vec![None; td.bag_count()];
        for &b in &order {
            let bag_b: BTreeSet<VertexId> = td.bag(b).iter().copied().collect();
            let kids = &children[b.index()];
            let node = if kids.is_empty() {
                // Leaf bag: introduce its vertices one by one above an empty leaf.
                let leaf = builder.push(NiceNodeKind::Leaf, BTreeSet::new());
                builder.introduce_chain(leaf, &BTreeSet::new(), &bag_b)
            } else {
                // One branch per child: forget the child-only vertices then
                // introduce the parent-only vertices; then join the branches.
                let mut branch_tops = Vec::with_capacity(kids.len());
                for &child in kids {
                    let child_top = top[child.index()].expect("children processed first");
                    let bag_child: BTreeSet<VertexId> = td.bag(child).iter().copied().collect();
                    let after_forget = builder.forget_chain(child_top, &bag_child, &bag_b);
                    let kept: BTreeSet<VertexId> =
                        bag_child.intersection(&bag_b).copied().collect();
                    let branch = builder.introduce_chain(after_forget, &kept, &bag_b);
                    branch_tops.push(branch);
                }
                // Fold the branches with binary joins.
                let mut acc = branch_tops[0];
                for &other in &branch_tops[1..] {
                    acc = builder.push(
                        NiceNodeKind::Join {
                            left: acc,
                            right: other,
                        },
                        bag_b.clone(),
                    );
                }
                acc
            };
            top[b.index()] = Some(node);
        }

        let root = top[root_bag.index()].expect("root processed last");
        NiceDecomposition {
            nodes: builder.nodes,
            root,
        }
    }

    /// The dense-table volume of the nice form of `td`: the sum of
    /// `2^|bag|` over the nodes [`NiceDecomposition::from_decomposition`]
    /// builds, which is the entry count of a dense sweep over it. Computed
    /// from the raw bags in `O(Σ|bag|)` without building the nice nodes, so
    /// candidate decompositions can be compared before one is converted.
    /// Saturates at `usize::MAX`.
    pub fn table_volume(td: &TreeDecomposition) -> usize {
        let pow2 = |k: usize| -> usize {
            if k < usize::BITS as usize {
                1 << k
            } else {
                usize::MAX
            }
        };
        // Σ 2^k over bag sizes `sizes`: one chain of introduce or forget
        // nodes.
        let chain = |sizes: std::ops::Range<usize>| -> usize {
            sizes.fold(0usize, |sum, k| sum.saturating_add(pow2(k)))
        };
        if td.bag_count() == 0 {
            return 1; // the single empty leaf
        }
        let root_bag = BagId(0);
        let children = children_under(td, root_bag);
        let mut volume = 0usize;
        for b in post_order(root_bag, &children) {
            let bag_b = td.bag(b);
            let kids = &children[b.index()];
            let nodes = if kids.is_empty() {
                // The empty leaf, then one introduce node per vertex.
                chain(0..bag_b.len() + 1)
            } else {
                // Per child: forget down to the shared vertices, introduce
                // back up to this bag; then `kids - 1` joins at this bag.
                let mut sum = pow2(bag_b.len()).saturating_mul(kids.len() - 1);
                for &child in kids {
                    let bag_child = td.bag(child);
                    let kept = bag_child.intersection(bag_b).count();
                    sum = sum
                        .saturating_add(chain(kept..bag_child.len()))
                        .saturating_add(chain(kept + 1..bag_b.len() + 1));
                }
                sum
            };
            volume = volume.saturating_add(nodes);
        }
        volume
    }

    /// Checks internal consistency: child indices precede parents, bags match
    /// the introduce/forget/join constraints. Used by tests.
    pub fn check_consistency(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            match &node.kind {
                NiceNodeKind::Leaf => {
                    if !node.bag.is_empty() {
                        return Err(format!("leaf {i} has a non-empty bag"));
                    }
                }
                NiceNodeKind::Introduce { vertex, child } => {
                    if *child >= i {
                        return Err(format!("introduce {i} references later child {child}"));
                    }
                    let child_bag = &self.nodes[*child].bag;
                    let mut expected = child_bag.clone();
                    if !expected.insert(*vertex) {
                        return Err(format!("introduce {i} re-introduces {vertex}"));
                    }
                    if expected != node.bag {
                        return Err(format!("introduce {i} bag mismatch"));
                    }
                }
                NiceNodeKind::Forget { vertex, child } => {
                    if *child >= i {
                        return Err(format!("forget {i} references later child {child}"));
                    }
                    let child_bag = &self.nodes[*child].bag;
                    let mut expected = child_bag.clone();
                    if !expected.remove(vertex) {
                        return Err(format!("forget {i} forgets absent {vertex}"));
                    }
                    if expected != node.bag {
                        return Err(format!("forget {i} bag mismatch"));
                    }
                }
                NiceNodeKind::Join { left, right } => {
                    if *left >= i || *right >= i {
                        return Err(format!("join {i} references a later child"));
                    }
                    if self.nodes[*left].bag != node.bag || self.nodes[*right].bag != node.bag {
                        return Err(format!("join {i} children bags differ from its own"));
                    }
                }
            }
        }
        if self.root >= self.nodes.len() && !self.nodes.is_empty() {
            return Err("root out of range".to_string());
        }
        Ok(())
    }
}

/// Children lists of the bag tree rooted at `root`: the one rooting that
/// [`NiceDecomposition::from_decomposition`] builds nodes from and
/// [`NiceDecomposition::table_volume`] counts them from.
fn children_under(td: &TreeDecomposition, root: BagId) -> Vec<Vec<BagId>> {
    let parents = td.root_at(root);
    let mut children: Vec<Vec<BagId>> = vec![Vec::new(); td.bag_count()];
    for b in td.bag_ids() {
        if let Some(p) = parents[b.index()] {
            children[p.index()].push(b);
        }
    }
    children
}

/// Computes a post-order (children before parents) of the rooted bag tree.
fn post_order(root: BagId, children: &[Vec<BagId>]) -> Vec<BagId> {
    let mut order = Vec::with_capacity(children.len());
    let mut stack = vec![(root, false)];
    while let Some((b, expanded)) = stack.pop() {
        if expanded {
            order.push(b);
        } else {
            stack.push((b, true));
            for &c in &children[b.index()] {
                stack.push((c, false));
            }
        }
    }
    order
}

struct Builder {
    nodes: Vec<NiceNode>,
}

impl Builder {
    fn push(&mut self, kind: NiceNodeKind, bag: BTreeSet<VertexId>) -> usize {
        self.nodes.push(NiceNode { kind, bag });
        self.nodes.len() - 1
    }

    /// Adds introduce nodes above `below` (whose bag is `from`) until the bag
    /// equals `to`. Requires `from ⊆ to`.
    fn introduce_chain(
        &mut self,
        below: usize,
        from: &BTreeSet<VertexId>,
        to: &BTreeSet<VertexId>,
    ) -> usize {
        let mut current = below;
        let mut bag = from.clone();
        for &v in to.iter() {
            if !bag.contains(&v) {
                bag.insert(v);
                current = self.push(
                    NiceNodeKind::Introduce {
                        vertex: v,
                        child: current,
                    },
                    bag.clone(),
                );
            }
        }
        current
    }

    /// Adds forget nodes above `below` (whose bag is `from`) removing every
    /// vertex not in `keep ∩ from`.
    fn forget_chain(
        &mut self,
        below: usize,
        from: &BTreeSet<VertexId>,
        keep: &BTreeSet<VertexId>,
    ) -> usize {
        let mut current = below;
        let mut bag = from.clone();
        let to_forget: Vec<VertexId> = from.iter().filter(|v| !keep.contains(v)).copied().collect();
        for v in to_forget {
            bag.remove(&v);
            current = self.push(
                NiceNodeKind::Forget {
                    vertex: v,
                    child: current,
                },
                bag.clone(),
            );
        }
        current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elimination::{decompose_with_heuristic, EliminationHeuristic};
    use crate::generators;

    fn nice_of(g: &crate::graph::Graph) -> NiceDecomposition {
        let td = decompose_with_heuristic(g, EliminationHeuristic::MinFill);
        NiceDecomposition::from_decomposition(&td)
    }

    #[test]
    fn empty_decomposition_gives_single_leaf() {
        let td = TreeDecomposition::new();
        let nd = NiceDecomposition::from_decomposition(&td);
        assert_eq!(nd.len(), 1);
        assert!(matches!(nd.node(nd.root()).kind, NiceNodeKind::Leaf));
        assert!(nd.check_consistency().is_ok());
    }

    #[test]
    fn path_nice_decomposition_preserves_width() {
        let g = generators::path(20);
        let nd = nice_of(&g);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 1);
    }

    #[test]
    fn cycle_nice_decomposition_preserves_width() {
        let g = generators::cycle(12);
        let nd = nice_of(&g);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 2);
    }

    #[test]
    fn every_vertex_is_forgotten_or_in_root() {
        // All graph vertices must appear somewhere; here we check that the set
        // of introduced vertices covers the graph.
        let g = generators::balanced_binary_tree(4);
        let nd = nice_of(&g);
        let mut introduced: BTreeSet<VertexId> = BTreeSet::new();
        for (_, node) in nd.iter_bottom_up() {
            if let NiceNodeKind::Introduce { vertex, .. } = node.kind {
                introduced.insert(vertex);
            }
        }
        for v in g.vertices() {
            assert!(introduced.contains(&v), "{v} never introduced");
        }
    }

    #[test]
    fn join_nodes_appear_for_branching_decompositions() {
        let g = generators::star(8);
        let nd = nice_of(&g);
        assert!(nd.check_consistency().is_ok());
        // A star's clique-tree branches at the centre, so joins must appear.
        let has_join = nd
            .iter_bottom_up()
            .any(|(_, n)| matches!(n.kind, NiceNodeKind::Join { .. }));
        assert!(has_join);
    }

    #[test]
    fn bottom_up_order_is_topological() {
        let g = generators::grid(3, 3);
        let nd = nice_of(&g);
        for (i, node) in nd.iter_bottom_up() {
            match node.kind {
                NiceNodeKind::Introduce { child, .. } | NiceNodeKind::Forget { child, .. } => {
                    assert!(child < i)
                }
                NiceNodeKind::Join { left, right } => {
                    assert!(left < i && right < i)
                }
                NiceNodeKind::Leaf => {}
            }
        }
    }

    #[test]
    fn large_path_does_not_overflow_stack() {
        let g = generators::path(20_000);
        let td = decompose_with_heuristic(&g, EliminationHeuristic::MinDegree);
        let nd = NiceDecomposition::from_decomposition(&td);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 1);
    }

    #[test]
    fn ten_thousand_bag_path_decomposition_converts_iteratively() {
        // Regression guard for the traversal code (`root_at`, `post_order`,
        // the builder chains): a maximally deep 10k-bag path decomposition
        // must convert without recursing on tree depth. Built by hand so the
        // bag tree is guaranteed to be one long path regardless of what the
        // elimination heuristics produce.
        let n = 10_000;
        let mut td = TreeDecomposition::new();
        let mut previous = None;
        for i in 0..n {
            let bag = td.add_bag([VertexId(i), VertexId(i + 1)]);
            if let Some(p) = previous {
                td.add_tree_edge(p, bag);
            }
            previous = Some(bag);
        }
        let nd = NiceDecomposition::from_decomposition(&td);
        assert!(nd.check_consistency().is_ok());
        assert_eq!(nd.width(), 1);
        assert_eq!(nd.max_bag_len(), 2);
        assert!(nd.len() >= n);
        // The accessors used by sweep-plan construction agree with the bags.
        let root_bag = nd.node(nd.root()).bag_indices();
        assert!(root_bag.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn nice_width_never_exceeds_original() {
        for seed in 0..5 {
            let g = generators::partial_k_tree(25, 3, 0.5, seed);
            let td = decompose_with_heuristic(&g, EliminationHeuristic::MinFill);
            let nd = NiceDecomposition::from_decomposition(&td);
            assert!(nd.check_consistency().is_ok());
            assert!(nd.width() <= td.width());
        }
    }

    fn built_volume(td: &TreeDecomposition) -> usize {
        NiceDecomposition::from_decomposition(td)
            .iter_bottom_up()
            .map(|(_, node)| 1usize << node.bag.len())
            .sum()
    }

    #[test]
    fn table_volume_matches_the_built_nice_nodes() {
        let mut graphs = vec![
            generators::path(30),
            generators::star(12),
            generators::grid(4, 5),
            generators::balanced_binary_tree(4),
        ];
        for seed in 0..6 {
            graphs.push(generators::partial_k_tree(40, 3, 0.6, seed));
            graphs.push(generators::erdos_renyi(18, 0.3, seed));
        }
        for g in &graphs {
            for h in EliminationHeuristic::ALL {
                let td = decompose_with_heuristic(g, h);
                assert_eq!(NiceDecomposition::table_volume(&td), built_volume(&td));
            }
        }
        // The empty decomposition (one leaf) and a bag-less child.
        let mut td = TreeDecomposition::new();
        assert_eq!(NiceDecomposition::table_volume(&td), 1);
        let a = td.add_bag([VertexId(0), VertexId(1)]);
        let b = td.add_bag([]);
        td.add_tree_edge(a, b);
        assert_eq!(NiceDecomposition::table_volume(&td), built_volume(&td));
    }

    #[test]
    fn table_volume_saturates_on_huge_bags() {
        let mut td = TreeDecomposition::new();
        td.add_bag((0..70).map(VertexId));
        assert_eq!(NiceDecomposition::table_volume(&td), usize::MAX);
    }
}
