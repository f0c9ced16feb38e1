//! Code-distance computation for (deformed) patches.
//!
//! For every patch in this workspace each data qubit lies in **at most two**
//! group products per basis (after an automatic change of generating set),
//! so minimum-weight logical operators are shortest paths: an undetected X
//! chain is a cycle (through the boundary) in the multigraph whose nodes
//! are Z-group products and whose edges are data qubits; it is *logical*
//! iff it crosses the logical Z support an odd number of times. The
//! minimum-weight logical is found by BFS over the parity-doubled graph.

use std::collections::{BTreeSet, HashMap, VecDeque};

use crate::patch::DataIndex;
use crate::{Basis, Coord, Patch};

/// The X and Z code distances of a patch.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub struct Distances {
    /// Minimum weight of a logical X operator.
    pub x: usize,
    /// Minimum weight of a logical Z operator.
    pub z: usize,
}

impl Distances {
    /// The effective code distance `min(x, z)`.
    pub fn min(self) -> usize {
        self.x.min(self.z)
    }
}

impl std::fmt::Display for Distances {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(dx={}, dz={})", self.x, self.z)
    }
}

/// Graph node of [`Patch::shortest_chain_reference`]: a detector-basis
/// group or the merged boundary.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
enum Node {
    Group(usize),
    Boundary,
}

impl Patch {
    /// Both code distances. See [`Patch::distance_x`].
    ///
    /// # Panics
    ///
    /// Panics if either logical class is empty (severed patch).
    pub fn distance(&self) -> Distances {
        Distances {
            x: self.distance_x(),
            z: self.distance_z(),
        }
    }

    /// Minimum weight of a logical X operator (an X chain that commutes
    /// with every Z-type group product and anti-commutes with logical Z).
    ///
    /// # Panics
    ///
    /// Panics if no logical X exists (the patch is severed); use
    /// [`Patch::try_distance_x`] to observe that case.
    pub fn distance_x(&self) -> usize {
        self.try_distance_x()
            .expect("patch has no logical X operator")
    }

    /// Minimum weight of a logical Z operator.
    ///
    /// # Panics
    ///
    /// Panics if no logical Z exists; use [`Patch::try_distance_z`].
    pub fn distance_z(&self) -> usize {
        self.try_distance_z()
            .expect("patch has no logical Z operator")
    }

    /// Fallible version of [`Patch::distance_x`].
    pub fn try_distance_x(&self) -> Option<usize> {
        self.shortest_chain(Basis::Z, self.logical_z())
            .map(|c| c.len())
    }

    /// Fallible version of [`Patch::distance_z`].
    pub fn try_distance_z(&self) -> Option<usize> {
        self.shortest_chain(Basis::X, self.logical_x())
            .map(|c| c.len())
    }

    /// Returns one minimum-weight logical X support (for inspection and
    /// testing). `None` if no logical X exists.
    pub fn shortest_logical_x(&self) -> Option<BTreeSet<Coord>> {
        self.shortest_chain(Basis::Z, self.logical_z())
    }

    /// Returns one minimum-weight logical Z support.
    pub fn shortest_logical_z(&self) -> Option<BTreeSet<Coord>> {
        self.shortest_chain(Basis::X, self.logical_x())
    }

    /// The stabilizer-group products of a basis, transformed (by pairwise
    /// multiplication) towards a generating set where every data qubit is
    /// covered by at most two products. The span is preserved; the rare
    /// qubits still over-covered after the budgeted reduction are excluded
    /// from chains by the caller (yielding a conservative distance
    /// estimate for heavily damaged patches).
    ///
    /// Products are ascending qubit indices of `index`. The work stack is
    /// seeded in coordinate order, so the reduction — and every chain built
    /// on it — is a function of the patch alone.
    fn graphlike_products(&self, basis: Basis, index: &DataIndex) -> Vec<Vec<u32>> {
        let n = index.qubits().len();
        let mut products = self.stabilizer_products(basis, index);
        let mut cover = vec![0u32; n];
        for &q in products.iter().flatten() {
            cover[q as usize] += 1;
        }
        if cover.iter().all(|&c| c <= 2) {
            return products;
        }
        // Incremental incidence lists + work stack of over-covered qubits.
        let mut incidence: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (i, p) in products.iter().enumerate() {
            for &q in p {
                incidence[q as usize].push(i);
            }
        }
        let mut queue: Vec<u32> = (0..n as u32)
            .filter(|&q| incidence[q as usize].len() > 2)
            .collect();
        let mut steps = 50 * products.len() + 100;
        while let Some(q) = queue.pop() {
            if steps == 0 {
                break;
            }
            if incidence[q as usize].len() <= 2 {
                continue;
            }
            steps -= 1;
            // XOR the smallest over-covering product into the second
            // smallest: removes the shared qubit from one of them.
            let mut by_size = incidence[q as usize].clone();
            by_size.sort_by_key(|&i| products[i].len());
            let (a, b) = (by_size[0], by_size[1]);
            let (pa, pb) = (&products[a], &products[b]);
            let mut sum = Vec::with_capacity(pa.len() + pb.len());
            let (mut i, mut j) = (0, 0);
            while i < pa.len() || j < pb.len() {
                if j == pb.len() || (i < pa.len() && pa[i] < pb[j]) {
                    let qq = pa[i];
                    sum.push(qq);
                    let list = &mut incidence[qq as usize];
                    list.push(b);
                    if list.len() > 2 {
                        queue.push(qq);
                    }
                    i += 1;
                } else if i == pa.len() || pb[j] < pa[i] {
                    sum.push(pb[j]);
                    j += 1;
                } else {
                    incidence[pa[i] as usize].retain(|&k| k != b);
                    i += 1;
                    j += 1;
                }
            }
            products[b] = sum;
            if incidence[q as usize].len() > 2 {
                queue.push(q);
            }
        }
        // Drop emptied products.
        products.retain(|p| !p.is_empty());
        products
    }

    /// Shortest chain of data qubits that commutes with every stabilizer
    /// product of `detector_basis` and crosses `observable` oddly.
    ///
    /// Graph nodes are product indices, with the merged boundary as node
    /// `products.len()`; BFS states are `2 · node + parity`.
    fn shortest_chain(
        &self,
        detector_basis: Basis,
        observable: &BTreeSet<Coord>,
    ) -> Option<BTreeSet<Coord>> {
        let index = self.data_index();
        let qubits = index.qubits();
        let products = self.graphlike_products(detector_basis, &index);
        let boundary = products.len() as u32;
        // The first two products on each qubit, and how many there are.
        let mut on_qubit: Vec<(usize, [u32; 2])> = vec![(0, [boundary; 2]); qubits.len()];
        for (idx, p) in products.iter().enumerate() {
            for &q in p {
                let (count, nodes) = &mut on_qubit[q as usize];
                if *count < 2 {
                    nodes[*count] = idx as u32;
                }
                *count += 1;
            }
        }
        // Adjacency in compressed sparse-row form, each node's edges in
        // data-qubit order: `(next node, crosses observable, qubit)`.
        let mut start = vec![0usize; boundary as usize + 2];
        for &(count, [a, b]) in &on_qubit {
            // Over-covered qubit after reduction: exclude it from chains
            // (conservative).
            if count <= 2 {
                start[a as usize + 1] += 1;
                start[b as usize + 1] += 1;
            }
        }
        for k in 0..=boundary as usize {
            start[k + 1] += start[k];
        }
        let mut fill = start.clone();
        let mut adj = vec![(0u32, false, 0u32); start[boundary as usize + 1]];
        for (q, &(count, [a, b])) in on_qubit.iter().enumerate() {
            if count > 2 {
                continue;
            }
            let obs = observable.contains(&qubits[q]);
            for (from, to) in [(a, b), (b, a)] {
                adj[fill[from as usize]] = (to, obs, q as u32);
                fill[from as usize] += 1;
            }
        }
        const UNSEEN: u32 = u32::MAX;
        let origin = 2 * boundary;
        let mut back = vec![(UNSEEN, 0u32); 2 * boundary as usize + 2];
        back[origin as usize].0 = origin;
        let mut queue = VecDeque::from([origin]);
        while let Some(state) = queue.pop_front() {
            let (node, parity) = (state / 2, state % 2);
            if node == boundary && parity == 1 {
                let mut chain = BTreeSet::new();
                let mut cur = state;
                while cur != origin {
                    let (prev, q) = back[cur as usize];
                    // XOR semantics: a qubit used twice cancels out.
                    if !chain.remove(&qubits[q as usize]) {
                        chain.insert(qubits[q as usize]);
                    }
                    cur = prev;
                }
                return Some(chain);
            }
            for &(next, obs, q) in &adj[start[node as usize]..start[node as usize + 1]] {
                let next_state = 2 * next + (parity ^ u32::from(obs));
                if back[next_state as usize].0 == UNSEEN {
                    back[next_state as usize] = (state, q);
                    queue.push_back(next_state);
                }
            }
        }
        None
    }

    /// [`Patch::graphlike_products`] over coordinate-keyed hash maps: the
    /// reference for [`Patch::shortest_chain_reference`].
    fn graphlike_products_reference(&self, basis: Basis) -> Vec<BTreeSet<Coord>> {
        let mut products: Vec<BTreeSet<Coord>> = self
            .stabilizer_group_ids()
            .into_iter()
            .filter(|&g| self.group_basis(g) == Some(basis))
            .map(|g| self.group_product(g))
            .filter(|p| !p.is_empty())
            .collect();
        // Incremental incidence map + work queue of over-covered qubits.
        let mut incidence: HashMap<Coord, Vec<usize>> = HashMap::new();
        for (i, p) in products.iter().enumerate() {
            for &q in p {
                incidence.entry(q).or_default().push(i);
            }
        }
        let mut queue: Vec<Coord> = incidence
            .iter()
            .filter(|(_, v)| v.len() > 2)
            .map(|(&q, _)| q)
            .collect();
        // Hash-map order varies per process; reduce in coordinate order.
        queue.sort_unstable();
        let mut steps = 50 * products.len() + 100;
        while let Some(q) = queue.pop() {
            if steps == 0 {
                break;
            }
            let inc = incidence.get(&q).map(Vec::as_slice).unwrap_or(&[]);
            if inc.len() <= 2 {
                continue;
            }
            steps -= 1;
            // XOR the smallest over-covering product into the second
            // smallest: removes the shared qubit from one of them.
            let mut by_size: Vec<usize> = inc.to_vec();
            by_size.sort_by_key(|&i| products[i].len());
            let (a, b) = (by_size[0], by_size[1]);
            let pa = products[a].clone();
            for qq in pa {
                let list = incidence.entry(qq).or_default();
                if products[b].remove(&qq) {
                    list.retain(|&i| i != b);
                } else {
                    products[b].insert(qq);
                    list.push(b);
                    if list.len() > 2 {
                        queue.push(qq);
                    }
                }
            }
            if incidence.get(&q).map(|v| v.len() > 2).unwrap_or(false) {
                queue.push(q);
            }
        }
        // Drop emptied products.
        products.retain(|p| !p.is_empty());
        products
    }

    /// The shortest-chain search over hash-map keyed nodes and states: the
    /// reference the indexed search must reproduce exactly (same chain,
    /// not only the same length). `shortest_chain_reference(Basis::Z,
    /// patch.logical_z())` is [`Patch::shortest_logical_x`]'s reference.
    #[doc(hidden)]
    pub fn shortest_chain_reference(
        &self,
        detector_basis: Basis,
        observable: &BTreeSet<Coord>,
    ) -> Option<BTreeSet<Coord>> {
        let products = self.graphlike_products_reference(detector_basis);
        let mut on_qubit: HashMap<Coord, Vec<usize>> = HashMap::new();
        for (idx, p) in products.iter().enumerate() {
            for &q in p {
                on_qubit.entry(q).or_default().push(idx);
            }
        }
        let mut adj: HashMap<Node, Vec<(Node, bool, Coord)>> = HashMap::new();
        for q in self.data_qubits() {
            let obs = observable.contains(&q);
            let nodes = on_qubit.get(&q).map(Vec::as_slice).unwrap_or(&[]);
            let (a, b) = match nodes {
                [] => (Node::Boundary, Node::Boundary),
                [g] => (Node::Group(*g), Node::Boundary),
                [g1, g2] => (Node::Group(*g1), Node::Group(*g2)),
                // Over-covered qubit after reduction: exclude it from
                // chains (conservative).
                _ => continue,
            };
            adj.entry(a).or_default().push((b, obs, q));
            adj.entry(b).or_default().push((a, obs, q));
        }
        let mut dist: HashMap<(Node, bool), usize> = HashMap::new();
        let mut back: HashMap<(Node, bool), ((Node, bool), Coord)> = HashMap::new();
        let mut queue = VecDeque::new();
        dist.insert((Node::Boundary, false), 0);
        queue.push_back((Node::Boundary, false));
        while let Some(state @ (node, parity)) = queue.pop_front() {
            if node == Node::Boundary && parity {
                let mut chain = BTreeSet::new();
                let mut cur = state;
                while let Some(&(prev, q)) = back.get(&cur) {
                    // XOR semantics: a qubit used twice cancels out.
                    if !chain.remove(&q) {
                        chain.insert(q);
                    }
                    cur = prev;
                }
                return Some(chain);
            }
            let d = dist[&state];
            for &(next, obs, q) in adj.get(&node).into_iter().flatten() {
                let nstate = (next, parity ^ obs);
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(nstate) {
                    e.insert(d + 1);
                    back.insert(nstate, (state, q));
                    queue.push_back(nstate);
                }
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GroupId;
    use std::collections::BTreeSet;

    #[test]
    fn fresh_patch_distance_equals_d() {
        for d in [2, 3, 5, 7, 9, 11] {
            let p = Patch::rotated(d);
            assert_eq!(p.distance(), Distances { x: d, z: d }, "d={d}");
        }
    }

    #[test]
    fn rectangle_distances_follow_dimensions() {
        let p = Patch::rectangle(3, 7);
        // Z distance = width (horizontal Z string), X distance = height.
        assert_eq!(p.distance_z(), 3);
        assert_eq!(p.distance_x(), 7);
    }

    #[test]
    fn shortest_logicals_are_valid() {
        let p = Patch::rotated(5);
        let lx = p.shortest_logical_x().unwrap();
        assert_eq!(lx.len(), 5);
        // Commutes with every Z product, crosses Z_L oddly.
        for g in p.group_ids() {
            if p.group_basis(g) == Some(Basis::Z) {
                assert_eq!(p.group_product(g).intersection(&lx).count() % 2, 0);
            }
        }
        assert_eq!(lx.intersection(p.logical_z()).count() % 2, 1);
        let lz = p.shortest_logical_z().unwrap();
        assert_eq!(lz.len(), 5);
        for g in p.group_ids() {
            if p.group_basis(g) == Some(Basis::X) {
                assert_eq!(p.group_product(g).intersection(&lz).count() % 2, 0);
            }
        }
        assert_eq!(lz.intersection(p.logical_x()).count() % 2, 1);
    }

    #[test]
    fn merging_groups_reduces_distance() {
        // Merging two Z groups in the same column shortens X chains: the
        // merged node lets a chain skip a face crossing.
        let mut p = Patch::rotated(5);
        let zs: Vec<GroupId> = p
            .group_ids()
            .into_iter()
            .filter(|&g| p.group_basis(g) == Some(Basis::Z))
            .collect();
        let mut merged = false;
        'outer: for &a in &zs {
            for &b in &zs {
                if a == b {
                    continue;
                }
                let pa = p.group_product(a);
                let pb = p.group_product(b);
                let ay: i32 = pa.iter().map(|c| c.y).min().unwrap();
                let by: i32 = pb.iter().map(|c| c.y).min().unwrap();
                let ax: i32 = pa.iter().map(|c| c.x).min().unwrap();
                let bx: i32 = pb.iter().map(|c| c.x).min().unwrap();
                if pa.len() == 4 && pb.len() == 4 && ax == bx && (by - ay) == 4 {
                    p.merge_groups(&[a, b]);
                    merged = true;
                    break 'outer;
                }
            }
        }
        assert!(merged);
        assert!(p.distance_x() < 5);
        assert_eq!(p.distance_z(), 5); // X side untouched
    }

    #[test]
    fn severed_patch_reports_none() {
        let p = Patch::rotated(3);
        let empty: BTreeSet<Coord> = BTreeSet::new();
        assert_eq!(p.shortest_chain(Basis::Z, &empty), None);
    }

    #[test]
    fn graphlike_reduction_preserves_fresh_patches() {
        let p = Patch::rotated(7);
        // Fresh patches are already graphlike: the reduction must be a
        // no-op and keep all 24 products per basis.
        let index = p.data_index();
        assert_eq!(p.graphlike_products(Basis::Z, &index).len(), 24);
        assert_eq!(p.graphlike_products(Basis::X, &index).len(), 24);
    }
}
