use std::collections::{BTreeMap, BTreeSet};

use crate::{Basis, BoundarySide, Coord};

/// Identifier of a stabilizer/gauge check within a [`Patch`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CheckId(pub(crate) u32);

/// Identifier of a gauge group within a [`Patch`].
///
/// A *group* is a set of checks whose product is a stabilizer of the code.
/// Singleton groups are ordinary stabilizers; multi-check groups are
/// super-stabilizers measured through their gauge-operator constituents.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GroupId(pub(crate) u32);

/// A measured check operator: an all-X or all-Z parity on a set of data
/// qubits, read out through an ancilla (or by direct data-qubit measurement
/// when `ancilla` is `None`, as in the weight-1 gauges of `SyndromeQ_RM`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Check {
    /// The Pauli basis of the check.
    pub basis: Basis,
    /// Data qubits in the check's support.
    pub support: BTreeSet<Coord>,
    /// The syndrome qubit used to measure the check, if any.
    pub ancilla: Option<Coord>,
    /// The gauge group this check belongs to.
    pub group: GroupId,
}

/// A (possibly deformed) surface-code patch.
///
/// The patch owns the data-qubit set, the measured checks partitioned into
/// gauge groups, and one logical-operator pair. All Surf-Deformer
/// instructions (`surf-deformer-core`) are implemented in terms of the
/// mutators exposed here; [`Patch::verify`] re-checks the subsystem-code
/// invariants after any sequence of mutations.
///
/// # Example
///
/// ```
/// use surf_lattice::Patch;
///
/// let patch = Patch::rotated(5);
/// assert_eq!(patch.num_data(), 25);
/// assert_eq!(patch.num_groups(), 24);
/// patch.verify().unwrap();
/// ```
#[derive(Clone, Debug)]
pub struct Patch {
    data: BTreeSet<Coord>,
    checks: BTreeMap<CheckId, Check>,
    groups: BTreeMap<GroupId, Vec<CheckId>>,
    /// Groups whose product is *not* a stabilizer (it anti-commutes with
    /// some measured check). Such groups arise at boundary notches; they
    /// are measured but yield no deterministic detector.
    gauge_only: BTreeSet<GroupId>,
    logical_x: BTreeSet<Coord>,
    logical_z: BTreeSet<Coord>,
    next_check: u32,
    next_group: u32,
}

impl Patch {
    /// Builds a distance-`d` rotated surface code with its north-west data
    /// qubit at `(1, 1)`.
    ///
    /// # Panics
    ///
    /// Panics if `d < 2`.
    pub fn rotated(d: usize) -> Self {
        Patch::rectangle_at(0, 0, d, d)
    }

    /// Builds a `width × height` rectangular rotated patch (Z distance =
    /// `width`, X distance = `height`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is `< 2`.
    pub fn rectangle(width: usize, height: usize) -> Self {
        Patch::rectangle_at(0, 0, width, height)
    }

    /// Builds a rectangular patch whose data qubits occupy columns
    /// `cx..cx+width` and rows `cy..cy+height` in cell units (data qubit
    /// `(c, r)` sits at lattice coordinate `(2c+1, 2r+1)`).
    ///
    /// # Panics
    ///
    /// Panics if either dimension is `< 2`.
    pub fn rectangle_at(cx: i32, cy: i32, width: usize, height: usize) -> Self {
        assert!(width >= 2 && height >= 2, "patch must be at least 2×2");
        let (w, h) = (width as i32, height as i32);
        let mut patch = Patch {
            data: BTreeSet::new(),
            checks: BTreeMap::new(),
            groups: BTreeMap::new(),
            gauge_only: BTreeSet::new(),
            logical_x: BTreeSet::new(),
            logical_z: BTreeSet::new(),
            next_check: 0,
            next_group: 0,
        };
        for c in 0..w {
            for r in 0..h {
                patch
                    .data
                    .insert(Coord::new(2 * (cx + c) + 1, 2 * (cy + r) + 1));
            }
        }
        // Plaquettes at (2i, 2j) for i in cx..=cx+w, j in cy..=cy+h.
        for i in cx..=cx + w {
            for j in cy..=cy + h {
                let anc = Coord::new(2 * i, 2 * j);
                let basis = anc.plaquette_basis();
                let support: BTreeSet<Coord> = anc
                    .diagonal_neighbors()
                    .into_iter()
                    .filter(|c| patch.data.contains(c))
                    .collect();
                let keep = match support.len() {
                    4 => true,
                    2 => {
                        let on_ns = j == cy || j == cy + h;
                        let on_we = i == cx || i == cx + w;
                        (on_ns && basis == Basis::X) || (on_we && basis == Basis::Z)
                    }
                    _ => false,
                };
                if keep {
                    patch.add_check(basis, support, Some(anc), None);
                }
            }
        }
        // Logical X: the west-most data column; logical Z: the north-most row.
        patch.logical_x = (0..h)
            .map(|r| Coord::new(2 * cx + 1, 2 * (cy + r) + 1))
            .collect();
        patch.logical_z = (0..w)
            .map(|c| Coord::new(2 * (cx + c) + 1, 2 * cy + 1))
            .collect();
        patch
    }

    // ------------------------------------------------------------------
    // Queries
    // ------------------------------------------------------------------

    /// Number of data qubits.
    pub fn num_data(&self) -> usize {
        self.data.len()
    }

    /// Number of gauge groups (= number of independent stabilizers).
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Number of measured checks.
    pub fn num_checks(&self) -> usize {
        self.checks.len()
    }

    /// Total physical qubits: data plus distinct ancillas.
    pub fn num_physical_qubits(&self) -> usize {
        self.data.len() + self.syndrome_qubits().len()
    }

    /// Sorted data-qubit coordinates.
    pub fn data_qubits(&self) -> Vec<Coord> {
        self.data.iter().copied().collect()
    }

    /// The dense index of the data qubits.
    pub(crate) fn data_index(&self) -> DataIndex {
        DataIndex::new(&self.data)
    }

    /// Sorted distinct ancilla coordinates.
    pub fn syndrome_qubits(&self) -> Vec<Coord> {
        let set: BTreeSet<Coord> = self.checks.values().filter_map(|c| c.ancilla).collect();
        set.into_iter().collect()
    }

    /// Returns `true` if `c` is a data qubit of this patch.
    pub fn contains_data(&self, c: Coord) -> bool {
        self.data.contains(&c)
    }

    /// Returns `true` if `c` is an ancilla used by some check.
    pub fn contains_syndrome(&self, c: Coord) -> bool {
        self.checks.values().any(|ch| ch.ancilla == Some(c))
    }

    /// All checks, with their ids.
    pub fn checks(&self) -> impl Iterator<Item = (CheckId, &Check)> + '_ {
        self.checks.iter().map(|(&id, c)| (id, c))
    }

    /// Looks up a check.
    pub fn check(&self, id: CheckId) -> Option<&Check> {
        self.checks.get(&id)
    }

    /// All group ids (stabilizer and gauge-only).
    pub fn group_ids(&self) -> Vec<GroupId> {
        self.groups.keys().copied().collect()
    }

    /// Group ids whose product is a stabilizer (detector-producing groups).
    pub fn stabilizer_group_ids(&self) -> Vec<GroupId> {
        self.groups
            .keys()
            .filter(|g| !self.gauge_only.contains(g))
            .copied()
            .collect()
    }

    /// Returns `true` if the group's product is a stabilizer.
    pub fn is_stabilizer_group(&self, g: GroupId) -> bool {
        self.groups.contains_key(&g) && !self.gauge_only.contains(&g)
    }

    /// Member checks of a group.
    pub fn group_members(&self, g: GroupId) -> &[CheckId] {
        self.groups.get(&g).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The basis of a group (all members share one basis).
    pub fn group_basis(&self, g: GroupId) -> Option<Basis> {
        self.group_members(g)
            .first()
            .and_then(|id| self.checks.get(id))
            .map(|c| c.basis)
    }

    /// The support of the group's product (symmetric difference of member
    /// supports) — the super-stabilizer the group measures.
    pub fn group_product(&self, g: GroupId) -> BTreeSet<Coord> {
        let mut acc: BTreeSet<Coord> = BTreeSet::new();
        for id in self.group_members(g) {
            for &q in &self.checks[id].support {
                if !acc.remove(&q) {
                    acc.insert(q);
                }
            }
        }
        acc
    }

    /// The products of the stabilizer groups of `basis` in group-id order,
    /// each as ascending qubit indices of `index`, skipping empty products.
    pub(crate) fn stabilizer_products(&self, basis: Basis, index: &DataIndex) -> Vec<Vec<u32>> {
        let mut incidences: Vec<(GroupId, u32)> = Vec::new();
        for check in self.checks.values().filter(|c| c.basis == basis) {
            incidences.extend(check.support.iter().map(|&q| (check.group, index.index(q))));
        }
        incidences.sort_unstable();
        incidences
            .chunk_by(|a, b| a.0 == b.0)
            .filter(|group| !self.gauge_only.contains(&group[0].0))
            .map(|group| odd_runs(group).map(|&(_, q)| q).collect::<Vec<u32>>())
            .filter(|product| !product.is_empty())
            .collect()
    }

    /// The ids of checks of the given basis whose support contains `q`.
    pub fn checks_on_data(&self, q: Coord, basis: Basis) -> Vec<CheckId> {
        self.checks
            .iter()
            .filter(|(_, c)| c.basis == basis && c.support.contains(&q))
            .map(|(&id, _)| id)
            .collect()
    }

    /// The groups of the given basis whose *product* acts on `q`.
    ///
    /// `q` is in a group's product iff an odd number of the group's member
    /// checks contain it, so only the checks on `q` are counted.
    pub fn groups_on_data(&self, q: Coord, basis: Basis) -> Vec<GroupId> {
        let mut hits: Vec<GroupId> = self
            .checks
            .values()
            .filter(|c| c.basis == basis && c.support.contains(&q))
            .map(|c| c.group)
            .collect();
        hits.sort_unstable();
        odd_runs(&hits).copied().collect()
    }

    /// [`Patch::groups_on_data`] by building every group's product: the
    /// reference the counting version must reproduce exactly.
    #[doc(hidden)]
    pub fn groups_on_data_reference(&self, q: Coord, basis: Basis) -> Vec<GroupId> {
        self.groups
            .keys()
            .filter(|&&g| self.group_basis(g) == Some(basis) && self.group_product(g).contains(&q))
            .copied()
            .collect()
    }

    /// Stabilizer groups of the given basis whose product acts on `q`
    /// (the detector nodes relevant for distance and decoding).
    pub fn stabilizer_groups_on_data(&self, q: Coord, basis: Basis) -> Vec<GroupId> {
        self.groups_on_data(q, basis)
            .into_iter()
            .filter(|g| !self.gauge_only.contains(g))
            .collect()
    }

    /// The check measured by ancilla `anc`, if any.
    pub fn check_at_ancilla(&self, anc: Coord) -> Option<CheckId> {
        self.checks
            .iter()
            .find(|(_, c)| c.ancilla == Some(anc))
            .map(|(&id, _)| id)
    }

    /// The logical X support.
    pub fn logical_x(&self) -> &BTreeSet<Coord> {
        &self.logical_x
    }

    /// The logical Z support.
    pub fn logical_z(&self) -> &BTreeSet<Coord> {
        &self.logical_z
    }

    /// Replaces the logical operators. The caller must only multiply them by
    /// stabilizer-group elements; [`Patch::verify`] re-checks validity.
    pub fn set_logicals(&mut self, x: BTreeSet<Coord>, z: BTreeSet<Coord>) {
        self.logical_x = x;
        self.logical_z = z;
    }

    /// Bounding box `(min, max)` of the data qubits, inclusive.
    ///
    /// # Panics
    ///
    /// Panics if the patch has no data qubits.
    pub fn bounding_box(&self) -> (Coord, Coord) {
        assert!(!self.data.is_empty(), "empty patch has no bounding box");
        let min_x = self.data.iter().map(|c| c.x).min().unwrap();
        let max_x = self.data.iter().map(|c| c.x).max().unwrap();
        let min_y = self.data.iter().map(|c| c.y).min().unwrap();
        let max_y = self.data.iter().map(|c| c.y).max().unwrap();
        (Coord::new(min_x, min_y), Coord::new(max_x, max_y))
    }

    /// Returns `true` if the data qubit participates in two checks of each
    /// basis (counting group products), i.e. it is not on a boundary.
    pub fn is_interior_data(&self, q: Coord) -> bool {
        self.data.contains(&q)
            && self.groups_on_data(q, Basis::X).len() == 2
            && self.groups_on_data(q, Basis::Z).len() == 2
    }

    /// Returns `true` if the ancilla's check is an interior plaquette: it has
    /// weight 4 and each supported data qubit is also covered by another
    /// check of the same basis.
    pub fn is_interior_syndrome(&self, anc: Coord) -> bool {
        let Some(id) = self.check_at_ancilla(anc) else {
            return false;
        };
        let check = &self.checks[&id];
        check.support.len() == 4
            && check
                .support
                .iter()
                .all(|&q| self.checks_on_data(q, check.basis).len() == 2)
    }

    /// The boundary sides a data qubit lies on, judged against the patch's
    /// bounding box (corners report two sides).
    pub fn boundary_sides_of(&self, q: Coord) -> Vec<BoundarySide> {
        let (min, max) = self.bounding_box();
        let mut sides = Vec::new();
        if q.y == min.y {
            sides.push(BoundarySide::Xl1);
        }
        if q.y == max.y {
            sides.push(BoundarySide::Xl2);
        }
        if q.x == min.x {
            sides.push(BoundarySide::Zl1);
        }
        if q.x == max.x {
            sides.push(BoundarySide::Zl2);
        }
        sides
    }

    // ------------------------------------------------------------------
    // Mutators (deformation building blocks)
    // ------------------------------------------------------------------

    /// Adds a data qubit.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is not a data site or already present.
    pub fn add_data(&mut self, c: Coord) {
        assert!(c.is_data_site(), "{c} is not a data site");
        assert!(self.data.insert(c), "data qubit {c} already present");
    }

    /// Removes a data qubit from the patch and erases it from every check's
    /// support. Checks whose support becomes empty are deleted (their group
    /// shrinks; empty groups are deleted).
    ///
    /// # Panics
    ///
    /// Panics if the qubit is still in a logical operator's support (reroute
    /// the logicals first) or not present.
    pub fn remove_data(&mut self, c: Coord) {
        assert!(self.data.remove(&c), "data qubit {c} not present");
        assert!(
            !self.logical_x.contains(&c) && !self.logical_z.contains(&c),
            "cannot remove {c}: still supports a logical operator"
        );
        let ids: Vec<CheckId> = self.checks.keys().copied().collect();
        for id in ids {
            let check = self.checks.get_mut(&id).unwrap();
            check.support.remove(&c);
            if check.support.is_empty() {
                self.remove_check(id);
            }
        }
    }

    /// Removes a check (and its group membership; empty groups vanish).
    pub fn remove_check(&mut self, id: CheckId) {
        let Some(check) = self.checks.remove(&id) else {
            return;
        };
        if let Some(members) = self.groups.get_mut(&check.group) {
            members.retain(|&m| m != id);
            if members.is_empty() {
                self.groups.remove(&check.group);
                self.gauge_only.remove(&check.group);
            }
        }
    }

    /// Removes an entire group and all of its member checks.
    pub fn remove_group(&mut self, g: GroupId) {
        for id in self.groups.remove(&g).unwrap_or_default() {
            self.checks.remove(&id);
        }
        self.gauge_only.remove(&g);
    }

    /// Adds a check. With `group: None` a fresh singleton group is created.
    ///
    /// # Panics
    ///
    /// Panics if the support is empty, contains non-data qubits, or the
    /// named group does not exist / has a different basis.
    pub fn add_check(
        &mut self,
        basis: Basis,
        support: BTreeSet<Coord>,
        ancilla: Option<Coord>,
        group: Option<GroupId>,
    ) -> CheckId {
        assert!(!support.is_empty(), "check must act on at least one qubit");
        for q in &support {
            assert!(self.data.contains(q), "check acts on missing qubit {q}");
        }
        let gid = match group {
            Some(g) => {
                assert!(self.groups.contains_key(&g), "group {g:?} missing");
                assert_eq!(self.group_basis(g), Some(basis), "group basis mismatch");
                g
            }
            None => {
                let g = GroupId(self.next_group);
                self.next_group += 1;
                self.groups.insert(g, Vec::new());
                g
            }
        };
        let id = CheckId(self.next_check);
        self.next_check += 1;
        self.checks.insert(
            id,
            Check {
                basis,
                support,
                ancilla,
                group: gid,
            },
        );
        self.groups.get_mut(&gid).unwrap().push(id);
        id
    }

    /// Merges several groups (all of one basis) into a single group.
    /// Returns the surviving group id.
    ///
    /// # Panics
    ///
    /// Panics if `ids` is empty, mentions a missing group, or mixes bases.
    pub fn merge_groups(&mut self, ids: &[GroupId]) -> GroupId {
        assert!(!ids.is_empty(), "nothing to merge");
        let basis = self.group_basis(ids[0]).expect("group missing");
        let target = ids[0];
        for &g in &ids[1..] {
            assert_eq!(self.group_basis(g), Some(basis), "cannot merge bases");
            if g == target {
                continue;
            }
            let members = self.groups.remove(&g).expect("group missing");
            self.gauge_only.remove(&g);
            for id in &members {
                self.checks.get_mut(id).unwrap().group = target;
            }
            self.groups.get_mut(&target).unwrap().extend(members);
        }
        target
    }

    /// Recomputes the gauge-group structure from scratch: checks that
    /// anti-commute are placed in the same anti-commutation component, and
    /// within each component all checks of one basis form a single group.
    /// Groups whose product anti-commutes with some measured check are
    /// flagged gauge-only.
    ///
    /// This is the generic "repair" pass run after every deformation
    /// instruction; it realises exactly the structures of paper Fig. 6
    /// (super-stabilizers, octagons, boundary notches).
    ///
    /// Only checks that share a data qubit can anti-commute, so the pass
    /// works over a qubit → check incidence index instead of comparing all
    /// pairs of checks. Components are merged in the same `(i, j)` order as
    /// the all-pairs scan of [`Patch::normalize_groups_reference`], so group
    /// numbering is identical.
    pub fn normalize_groups(&mut self) {
        let incidence = Incidence::new(&DataIndex::new(&self.data), self.checks.values());
        let ids: Vec<CheckId> = self.checks.keys().copied().collect();
        let bases: Vec<Basis> = self.checks.values().map(|c| c.basis).collect();
        let n = ids.len();
        // Drop duplicate measurements (identical basis and support), keeping
        // the lowest id: they arise when two deformations independently
        // re-derive the same check and would make the stabilizer products
        // linearly dependent. A duplicate shares its first qubit.
        let mut live = vec![true; n];
        for c in 0..n {
            let support = incidence.support_of(c);
            let duplicate = incidence.checks_on(support[0] as usize).iter().any(|&o| {
                let o = o as usize;
                o < c && bases[o] == bases[c] && incidence.support_of(o) == support
            });
            if duplicate {
                live[c] = false;
                self.remove_check(ids[c]);
            }
        }
        // Union the anti-commuting pairs (opposite bases, an odd number of
        // shared qubits) in (i, j) order.
        let mut parent: Vec<usize> = (0..n).collect();
        let mut partners: Vec<usize> = Vec::new();
        for i in (0..n).filter(|&i| live[i]) {
            partners.clear();
            for &q in incidence.support_of(i) {
                partners.extend(
                    incidence
                        .checks_on(q as usize)
                        .iter()
                        .map(|&j| j as usize)
                        .filter(|&j| j > i && live[j] && bases[j] != bases[i]),
                );
            }
            partners.sort_unstable();
            for &j in odd_runs(&partners) {
                let (ra, rb) = (find(&mut parent, i), find(&mut parent, j));
                if ra != rb {
                    parent[ra] = rb;
                }
            }
        }
        // Rebuild groups: one group per (component, basis), numbered in
        // (root, basis) order, members in id order.
        let mut keyed: Vec<(usize, Basis, usize)> = (0..n)
            .filter(|&i| live[i])
            .map(|i| (find(&mut parent, i), bases[i], i))
            .collect();
        keyed.sort_unstable();
        let mut group_of = vec![GroupId(0); n];
        // The old member lists are refilled rather than reallocated.
        let mut spare: Vec<Vec<CheckId>> = std::mem::take(&mut self.groups).into_values().collect();
        let mut groups: Vec<(GroupId, Vec<CheckId>)> = Vec::new();
        let mut gauge_only: Vec<GroupId> = Vec::new();
        // A group is gauge-only iff some opposite-basis check meets its
        // product oddly, i.e. meets an odd total of its members' qubits.
        let mut odd = vec![false; n];
        let mut touched: Vec<usize> = Vec::new();
        for members in keyed.chunk_by(|a, b| (a.0, a.1) == (b.0, b.1)) {
            let g = GroupId(self.next_group);
            self.next_group += 1;
            let basis = members[0].1;
            for &(_, _, m) in members {
                group_of[m] = g;
                for &q in incidence.support_of(m) {
                    for &c in incidence.checks_on(q as usize) {
                        let c = c as usize;
                        if live[c] && bases[c] != basis {
                            odd[c] ^= true;
                            touched.push(c);
                        }
                    }
                }
            }
            if touched.iter().any(|&c| odd[c]) {
                gauge_only.push(g);
            }
            for c in touched.drain(..) {
                odd[c] = false;
            }
            let mut list = spare.pop().unwrap_or_default();
            list.clear();
            list.extend(members.iter().map(|&(_, _, m)| ids[m]));
            groups.push((g, list));
        }
        let live_groups = group_of.iter().zip(&live).filter(|(_, &l)| l);
        for (check, (&g, _)) in self.checks.values_mut().zip(live_groups) {
            check.group = g;
        }
        self.groups = groups.into_iter().collect();
        self.gauge_only = gauge_only.into_iter().collect();
    }

    /// [`Patch::normalize_groups`] by the all-pairs scan over checks and
    /// full product intersections: the reference the indexed version must
    /// reproduce exactly (group ids, member order, gauge-only flags).
    #[doc(hidden)]
    pub fn normalize_groups_reference(&mut self) {
        // Drop duplicate measurements first (identical basis and support).
        {
            let mut seen: BTreeSet<(Basis, Vec<Coord>)> = BTreeSet::new();
            let ids: Vec<CheckId> = self.checks.keys().copied().collect();
            for id in ids {
                let key = {
                    let c = &self.checks[&id];
                    (c.basis, c.support.iter().copied().collect::<Vec<_>>())
                };
                if !seen.insert(key) {
                    self.remove_check(id);
                }
            }
        }
        let ids: Vec<CheckId> = self.checks.keys().copied().collect();
        let n = ids.len();
        // Union-find over check indices.
        let mut parent: Vec<usize> = (0..n).collect();
        for i in 0..n {
            for j in i + 1..n {
                let (a, b) = (&self.checks[&ids[i]], &self.checks[&ids[j]]);
                if a.basis != b.basis && a.support.intersection(&b.support).count() % 2 == 1 {
                    let (ra, rb) = (find(&mut parent, i), find(&mut parent, j));
                    if ra != rb {
                        parent[ra] = rb;
                    }
                }
            }
        }
        // Rebuild groups: one group per (component, basis).
        let mut new_groups: BTreeMap<(usize, Basis), Vec<CheckId>> = BTreeMap::new();
        for (i, &id) in ids.iter().enumerate() {
            let root = find(&mut parent, i);
            let basis = self.checks[&id].basis;
            new_groups.entry((root, basis)).or_default().push(id);
        }
        self.groups.clear();
        self.gauge_only.clear();
        for (_, members) in new_groups {
            let g = GroupId(self.next_group);
            self.next_group += 1;
            for id in &members {
                self.checks.get_mut(id).unwrap().group = g;
            }
            self.groups.insert(g, members);
        }
        // Flag gauge-only groups.
        let flagged: Vec<GroupId> = self
            .groups
            .keys()
            .copied()
            .filter(|&g| {
                let product = self.group_product(g);
                let basis = self.group_basis(g).unwrap();
                self.checks
                    .values()
                    .any(|c| c.basis != basis && c.support.intersection(&product).count() % 2 == 1)
            })
            .collect();
        self.gauge_only.extend(flagged);
    }

    /// Replaces the support of an existing check.
    ///
    /// # Panics
    ///
    /// Panics if the check is missing or the new support is invalid.
    pub fn set_check_support(&mut self, id: CheckId, support: BTreeSet<Coord>) {
        assert!(!support.is_empty(), "check must act on at least one qubit");
        for q in &support {
            assert!(self.data.contains(q), "check acts on missing qubit {q}");
        }
        self.checks.get_mut(&id).expect("check missing").support = support;
    }

    // ------------------------------------------------------------------
    // Validation
    // ------------------------------------------------------------------

    /// Verifies the subsystem-code invariants of the patch:
    ///
    /// 1. check supports and logicals live on data qubits;
    /// 2. groups are basis-homogeneous with non-empty products;
    /// 3. every group product commutes with every measured check;
    /// 4. every check commutes with both logical operators;
    /// 5. the logicals anti-commute with each other;
    /// 6. group products are independent and the counting identity
    ///    `G = n − 1 − (C − G)/2` holds (one logical qubit, `(C−G)/2`
    ///    gauge qubits).
    ///
    /// # Errors
    ///
    /// A human-readable description of the first violated invariant.
    pub fn verify(&self) -> Result<(), String> {
        use surf_pauli::gf2::Mat;
        use surf_pauli::BitVec;

        // (1) supports on data qubits.
        for (id, check) in &self.checks {
            for q in &check.support {
                if !self.data.contains(q) {
                    return Err(format!("check {id:?} acts on missing qubit {q}"));
                }
            }
        }
        for (name, l) in [("X_L", &self.logical_x), ("Z_L", &self.logical_z)] {
            if l.is_empty() {
                return Err(format!("{name} is empty"));
            }
            for q in l {
                if !self.data.contains(q) {
                    return Err(format!("{name} acts on missing qubit {q}"));
                }
            }
        }

        // (2) homogeneous groups, non-empty products.
        for (&g, members) in &self.groups {
            if members.is_empty() {
                return Err(format!("group {g:?} is empty"));
            }
            let basis = self.checks[&members[0]].basis;
            if members.iter().any(|id| self.checks[id].basis != basis) {
                return Err(format!("group {g:?} mixes bases"));
            }
            if self.group_product(g).is_empty() {
                return Err(format!("group {g:?} has trivial product"));
            }
        }

        // (3) stabilizer-group products commute with all checks; gauge-only
        // groups must genuinely anti-commute with something (otherwise they
        // should have been stabilizers).
        let products: Vec<(GroupId, Basis, BTreeSet<Coord>)> = self
            .groups
            .keys()
            .map(|&g| (g, self.group_basis(g).unwrap(), self.group_product(g)))
            .collect();
        for (g, basis, product) in &products {
            let conflict = self.checks.iter().find(|(_, check)| {
                check.basis != *basis && check.support.intersection(product).count() % 2 != 0
            });
            match (self.gauge_only.contains(g), conflict) {
                (false, Some((id, _))) => {
                    return Err(format!(
                        "group {g:?} product anti-commutes with check {id:?}"
                    ));
                }
                (true, None) => {
                    return Err(format!(
                        "group {g:?} is flagged gauge-only but commutes with everything"
                    ));
                }
                _ => {}
            }
        }
        for (id, check) in &self.checks {
            let logical = match check.basis {
                Basis::X => &self.logical_z,
                Basis::Z => &self.logical_x,
            };
            if check.support.intersection(logical).count() % 2 != 0 {
                return Err(format!("check {id:?} anti-commutes with a logical"));
            }
        }

        // (5) logicals anti-commute.
        if self.logical_x.intersection(&self.logical_z).count() % 2 != 1 {
            return Err("logical operators do not anti-commute".to_string());
        }

        // (6) the stabilizer group leaves at least one logical degree of
        // freedom: rank of the products is at most n−1. (Products may be
        // *dependent* — e.g. a plaquette subsumed by the weight-1 checks of
        // two adjacent `SyndromeQ_RM` octagons — that is redundancy, not an
        // error.)
        let qubits: Vec<Coord> = self.data.iter().copied().collect();
        let index = |q: &Coord| qubits.binary_search(q).unwrap();
        let n = qubits.len();
        let mut mat = Mat::new(2 * n);
        for (g, basis, product) in &products {
            if self.gauge_only.contains(g) {
                continue;
            }
            let mut row = BitVec::zeros(2 * n);
            for q in product {
                let off = if *basis == Basis::X { 0 } else { n };
                row.set(off + index(q), true);
            }
            mat.push_row(row);
        }
        if mat.rank() > n - 1 {
            return Err(format!(
                "stabilizer rank {} leaves no logical qubit (n={n})",
                mat.rank()
            ));
        }
        Ok(())
    }
}

/// Union-find root of `v`, with path compression.
fn find(parent: &mut [usize], v: usize) -> usize {
    if parent[v] != v {
        let r = find(parent, parent[v]);
        parent[v] = r;
    }
    parent[v]
}

/// The distinct values of a sorted slice that occur an odd number of times,
/// in order.
fn odd_runs<T: PartialEq>(sorted: &[T]) -> impl Iterator<Item = &T> + '_ {
    sorted
        .chunk_by(|a, b| a == b)
        .filter(|run| run.len() % 2 == 1)
        .map(|run| &run[0])
}

/// Dense numbering of a patch's data qubits in coordinate order, looked up
/// through a grid over their bounding box (data qubits sit on odd sites).
pub(crate) struct DataIndex {
    qubits: Vec<Coord>,
    min: Coord,
    rows: i32,
    columns: i32,
    grid: Vec<u32>,
}

impl DataIndex {
    pub(crate) fn new(data: &BTreeSet<Coord>) -> DataIndex {
        let qubits: Vec<Coord> = data.iter().copied().collect();
        let (Some(first), Some(last)) = (qubits.first(), qubits.last()) else {
            return DataIndex {
                qubits,
                min: Coord::new(0, 0),
                rows: 0,
                columns: 0,
                grid: Vec::new(),
            };
        };
        let (min_y, max_y) = qubits
            .iter()
            .fold((first.y, first.y), |(lo, hi), q| (lo.min(q.y), hi.max(q.y)));
        let min = Coord::new(first.x, min_y);
        let (columns, rows) = ((last.x - first.x) / 2 + 1, (max_y - min_y) / 2 + 1);
        let mut grid = vec![u32::MAX; (columns * rows) as usize];
        for (i, q) in qubits.iter().enumerate() {
            grid[((q.x - min.x) / 2 * rows + (q.y - min.y) / 2) as usize] = i as u32;
        }
        DataIndex {
            qubits,
            min,
            rows,
            columns,
            grid,
        }
    }

    /// The data qubits, sorted: position `i` is qubit index `i`.
    pub(crate) fn qubits(&self) -> &[Coord] {
        &self.qubits
    }

    /// The index of data qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a data qubit of the patch.
    pub(crate) fn index(&self, q: Coord) -> u32 {
        let (dx, dy) = (q.x - self.min.x, q.y - self.min.y);
        let (column, row) = (dx / 2, dy / 2);
        let i = if dx >= 0 && dy >= 0 && column < self.columns && row < self.rows {
            self.grid[(column * self.rows + row) as usize]
        } else {
            u32::MAX
        };
        assert!(
            i != u32::MAX && self.qubits[i as usize] == q,
            "{q} is not a data qubit"
        );
        i
    }
}

/// Check ↔ data-qubit incidence in compressed sparse-row form, both ways.
/// Qubits are numbered by [`DataIndex`] and checks by their position in
/// `CheckId` order, so every list is ascending.
struct Incidence {
    /// `support[support_start[c]..support_start[c + 1]]`: the qubits of check `c`.
    support_start: Vec<usize>,
    support: Vec<u32>,
    /// `checks[checks_start[q]..checks_start[q + 1]]`: the checks on qubit `q`.
    checks_start: Vec<usize>,
    checks: Vec<u32>,
}

impl Incidence {
    fn new<'a>(index: &DataIndex, checks: impl Iterator<Item = &'a Check>) -> Incidence {
        let n = index.qubits().len();
        let mut support_start = vec![0];
        let mut support = Vec::new();
        let mut checks_start = vec![0usize; n + 1];
        for check in checks {
            for &q in &check.support {
                let q = index.index(q);
                support.push(q);
                checks_start[q as usize + 1] += 1;
            }
            support_start.push(support.len());
        }
        for q in 0..n {
            checks_start[q + 1] += checks_start[q];
        }
        let mut fill = checks_start.clone();
        let mut on = vec![0u32; support.len()];
        for c in 0..support_start.len() - 1 {
            for &q in &support[support_start[c]..support_start[c + 1]] {
                on[fill[q as usize]] = c as u32;
                fill[q as usize] += 1;
            }
        }
        Incidence {
            support_start,
            support,
            checks_start,
            checks: on,
        }
    }

    fn support_of(&self, c: usize) -> &[u32] {
        &self.support[self.support_start[c]..self.support_start[c + 1]]
    }

    fn checks_on(&self, q: usize) -> &[u32] {
        &self.checks[self.checks_start[q]..self.checks_start[q + 1]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotated_counts() {
        for d in [2, 3, 5, 7, 9] {
            let p = Patch::rotated(d);
            assert_eq!(p.num_data(), d * d, "d={d}");
            assert_eq!(p.num_groups(), d * d - 1, "d={d}");
            assert_eq!(p.num_checks(), d * d - 1, "d={d}");
            assert_eq!(p.num_physical_qubits(), 2 * d * d - 1, "d={d}");
            p.verify().unwrap_or_else(|e| panic!("d={d}: {e}"));
        }
    }

    #[test]
    fn rectangle_counts() {
        let p = Patch::rectangle(3, 5);
        assert_eq!(p.num_data(), 15);
        assert_eq!(p.num_groups(), 14);
        p.verify().unwrap();
        assert_eq!(p.logical_x().len(), 5); // vertical string
        assert_eq!(p.logical_z().len(), 3); // horizontal string
    }

    #[test]
    fn rectangle_at_offset() {
        let p = Patch::rectangle_at(10, -3, 3, 3);
        p.verify().unwrap();
        let (min, max) = p.bounding_box();
        assert_eq!(min, Coord::new(21, -5));
        assert_eq!(max, Coord::new(25, -1));
    }

    #[test]
    fn balanced_check_types() {
        let p = Patch::rotated(5);
        let x = p.checks().filter(|(_, c)| c.basis == Basis::X).count();
        let z = p.checks().filter(|(_, c)| c.basis == Basis::Z).count();
        assert_eq!(x, 12);
        assert_eq!(z, 12);
    }

    #[test]
    fn interior_and_boundary_classification() {
        let p = Patch::rotated(5);
        // Centre data qubit is interior.
        assert!(p.is_interior_data(Coord::new(5, 5)));
        // Corner data qubit is not.
        assert!(!p.is_interior_data(Coord::new(1, 1)));
        assert_eq!(
            p.boundary_sides_of(Coord::new(1, 1)),
            vec![BoundarySide::Xl1, BoundarySide::Zl1]
        );
        assert!(p.boundary_sides_of(Coord::new(5, 5)).is_empty());
        // Centre plaquette is interior; boundary half-moon is not.
        assert!(p.is_interior_syndrome(Coord::new(4, 4)));
        let boundary_anc = p
            .checks()
            .find(|(_, c)| c.support.len() == 2)
            .and_then(|(_, c)| c.ancilla)
            .unwrap();
        assert!(!p.is_interior_syndrome(boundary_anc));
    }

    #[test]
    fn group_product_is_symmetric_difference() {
        let mut p = Patch::rotated(3);
        // Merge two disjoint Z groups; the product is the union.
        let zs: Vec<GroupId> = p
            .group_ids()
            .into_iter()
            .filter(|&g| p.group_basis(g) == Some(Basis::Z))
            .take(2)
            .collect();
        let expected: BTreeSet<Coord> = p
            .group_product(zs[0])
            .union(&p.group_product(zs[1]))
            .copied()
            .collect();
        let disjoint = p
            .group_product(zs[0])
            .intersection(&p.group_product(zs[1]))
            .count()
            == 0;
        let merged = p.merge_groups(&zs);
        if disjoint {
            assert_eq!(p.group_product(merged), expected);
        }
        assert_eq!(p.group_members(merged).len(), 2);
    }

    #[test]
    fn remove_data_erases_from_checks() {
        let mut p = Patch::rotated(3);
        let q = Coord::new(3, 3); // interior qubit, not on either logical
        assert!(!p.logical_x().contains(&q) && !p.logical_z().contains(&q));
        p.remove_data(q);
        assert!(!p.contains_data(q));
        for (_, c) in p.checks() {
            assert!(!c.support.contains(&q));
        }
    }

    #[test]
    #[should_panic(expected = "still supports a logical")]
    fn remove_logical_qubit_panics() {
        let mut p = Patch::rotated(3);
        p.remove_data(Coord::new(1, 1));
    }

    #[test]
    fn verify_catches_anticommuting_check() {
        let mut p = Patch::rotated(3);
        // A stray weight-1 X check on a qubit of Z_L anti-commutes with it.
        let q = Coord::new(3, 1);
        assert!(p.logical_z().contains(&q));
        p.add_check(Basis::X, [q].into_iter().collect(), None, None);
        assert!(p.verify().is_err());
    }

    #[test]
    fn normalize_dedupes_identical_checks() {
        let mut p = Patch::rotated(3);
        let before = p.num_checks();
        let (_, dup) = p.checks().next().map(|(id, c)| (id, c.clone())).unwrap();
        p.add_check(dup.basis, dup.support.clone(), None, None);
        assert_eq!(p.num_checks(), before + 1);
        p.normalize_groups();
        assert_eq!(p.num_checks(), before, "duplicate measurement dropped");
        p.verify().unwrap();
    }

    #[test]
    fn checks_on_data_counts() {
        let p = Patch::rotated(5);
        let center = Coord::new(5, 5);
        assert_eq!(p.checks_on_data(center, Basis::X).len(), 2);
        assert_eq!(p.checks_on_data(center, Basis::Z).len(), 2);
        let corner = Coord::new(1, 1);
        let total =
            p.checks_on_data(corner, Basis::X).len() + p.checks_on_data(corner, Basis::Z).len();
        assert_eq!(total, 2); // corner qubit sits in exactly 2 checks
    }

    #[test]
    fn logicals_anticommute_once() {
        let p = Patch::rotated(7);
        let overlap: Vec<_> = p.logical_x().intersection(p.logical_z()).collect();
        assert_eq!(overlap.len(), 1);
    }
}
