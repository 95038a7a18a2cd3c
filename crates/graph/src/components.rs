//! Union-find and connected components.
//!
//! Connected components over a *match graph* are the transitive closure the
//! Almser method reasons about: records in the same component are implied
//! matches even when no direct edge was predicted.

use crate::graph::Graph;

/// Disjoint-set forest with path compression and union by rank.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    count: usize,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        Self { parent: (0..n).collect(), rank: vec![0; n], count: n }
    }

    /// Find the representative of `x`'s set.
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // path compression
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Merge the sets containing `a` and `b`; returns true if they were
    /// previously disjoint.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
        self.count -= 1;
        true
    }

    /// Whether `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Number of disjoint sets.
    pub fn num_sets(&self) -> usize {
        self.count
    }
}

/// Connected components of a graph. Returns a dense component id per node
/// (ids are `0..k`, assigned in order of first appearance).
pub fn connected_components(g: &Graph) -> Vec<usize> {
    let n = g.num_nodes();
    let mut uf = UnionFind::new(n);
    for (u, v, _) in g.edges() {
        uf.union(u, v);
    }
    compress_labels(&mut uf, n)
}

/// Connected components, thresholded: only edges with weight strictly above
/// `min_weight` connect nodes.
pub fn connected_components_above(g: &Graph, min_weight: f64) -> Vec<usize> {
    let n = g.num_nodes();
    let mut uf = UnionFind::new(n);
    for (u, v, w) in g.edges() {
        if w > min_weight {
            uf.union(u, v);
        }
    }
    compress_labels(&mut uf, n)
}

fn compress_labels(uf: &mut UnionFind, n: usize) -> Vec<usize> {
    let mut label = vec![usize::MAX; n];
    let mut next = 0usize;
    (0..n)
        .map(|node| {
            let root = uf.find(node);
            if label[root] == usize::MAX {
                label[root] = next;
                next += 1;
            }
            label[root]
        })
        .collect()
}

/// Group node ids by component id: `result[c]` lists the members of
/// component `c`.
pub fn component_members(assignment: &[usize]) -> Vec<Vec<usize>> {
    let k = assignment.iter().copied().max().map_or(0, |m| m + 1);
    let mut groups = vec![Vec::new(); k];
    for (node, &c) in assignment.iter().enumerate() {
        groups[c].push(node);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        assert_eq!(uf.num_sets(), 5);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert!(uf.connected(0, 2));
        assert!(!uf.connected(0, 3));
        assert_eq!(uf.num_sets(), 3);
    }

    #[test]
    fn components_of_two_islands() {
        let g = Graph::from_edges(6, &[(0, 1, 1.0), (1, 2, 1.0), (3, 4, 1.0)]);
        let cc = connected_components(&g);
        assert_eq!(cc[0], cc[1]);
        assert_eq!(cc[1], cc[2]);
        assert_eq!(cc[3], cc[4]);
        assert_ne!(cc[0], cc[3]);
        assert_ne!(cc[5], cc[0]);
        assert_ne!(cc[5], cc[3]);
        let groups = component_members(&cc);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[0], vec![0, 1, 2]);
    }

    #[test]
    fn thresholded_components_ignore_weak_edges() {
        let g = Graph::from_edges(4, &[(0, 1, 0.9), (1, 2, 0.3), (2, 3, 0.8)]);
        let cc = connected_components_above(&g, 0.5);
        assert_eq!(cc[0], cc[1]);
        assert_eq!(cc[2], cc[3]);
        assert_ne!(cc[0], cc[2]);
    }

    #[test]
    fn labels_are_dense_and_ordered() {
        let g = Graph::from_edges(4, &[(2, 3, 1.0)]);
        let cc = connected_components(&g);
        assert_eq!(cc, vec![0, 1, 2, 2]);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        assert!(connected_components(&g).is_empty());
        assert!(component_members(&[]).is_empty());
    }
}
