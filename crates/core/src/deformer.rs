//! The code deformation unit (paper Section V): the Defect Removal
//! subroutine (Algorithm 1) and the Adaptive Enlargement subroutine
//! (Algorithm 2).

use surf_defects::DefectMap;
use surf_lattice::{BoundarySide, Coord, Distances, Patch};

use crate::instructions::{data_q_rm, patch_q_rm, syndrome_q_rm, DeformError};

/// Per-side enlargement budget (the layout's extra inter-space `Δd`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EnlargeBudget {
    /// Extra layers available north (side `Xl1`).
    pub north: usize,
    /// Extra layers available south (side `Xl2`).
    pub south: usize,
    /// Extra layers available west (side `Zl1`).
    pub west: usize,
    /// Extra layers available east (side `Zl2`).
    pub east: usize,
}

impl EnlargeBudget {
    /// A uniform budget of `delta_d` layers on every side.
    pub fn uniform(delta_d: usize) -> Self {
        EnlargeBudget {
            north: delta_d,
            south: delta_d,
            west: delta_d,
            east: delta_d,
        }
    }

    /// Total layers available.
    pub fn total(&self) -> usize {
        self.north + self.south + self.west + self.east
    }

    fn get(&self, side: BoundarySide) -> usize {
        match side {
            BoundarySide::Xl1 => self.north,
            BoundarySide::Xl2 => self.south,
            BoundarySide::Zl1 => self.west,
            BoundarySide::Zl2 => self.east,
        }
    }

    fn take(&mut self, side: BoundarySide) {
        let slot = match side {
            BoundarySide::Xl1 => &mut self.north,
            BoundarySide::Xl2 => &mut self.south,
            BoundarySide::Zl1 => &mut self.west,
            BoundarySide::Zl2 => &mut self.east,
        };
        *slot = slot.checked_sub(1).expect("budget underflow");
    }
}

/// Outcome of a mitigation pass.
#[derive(Clone, Debug, Default)]
pub struct MitigationReport {
    /// Qubits excluded from the code by removal instructions.
    pub removed: Vec<Coord>,
    /// Defective qubits that could not be removed (severed logical) and
    /// remain physically active in the patch.
    pub kept: Vec<Coord>,
    /// Layers added per side `[north, south, west, east]`.
    pub layers_added: [usize; 4],
    /// Final code distances.
    pub distance: Distances,
    /// Whether the target distance was fully restored.
    pub restored: bool,
}

/// The runtime code deformation unit: owns a patch, applies Algorithm 1
/// (defect removal) and Algorithm 2 (adaptive enlargement) against incoming
/// defect maps.
///
/// # Example
///
/// ```
/// use surf_deformer_core::Deformer;
/// use surf_defects::DefectMap;
/// use surf_lattice::{Coord, Patch};
///
/// let mut deformer = Deformer::new(Patch::rotated(5));
/// let defects = DefectMap::from_qubits([Coord::new(5, 5)], 0.5);
/// let report = deformer.remove_defects(&defects).unwrap();
/// assert_eq!(report.removed.len(), 1);
/// assert!(deformer.patch().distance().min() >= 4);
/// ```
#[derive(Clone, Debug)]
pub struct Deformer {
    patch: Patch,
    /// Footprint in cell units: origin and dims.
    origin: (i32, i32),
    dims: (usize, usize),
    /// The pristine footprint the deformer started from ([`Deformer::replan`]
    /// resets to it, refunding spent enlargement budget).
    base_origin: (i32, i32),
    base_dims: (usize, usize),
    /// Target distances (the original code distance to restore).
    target: Distances,
    budget: EnlargeBudget,
    /// All defects applied so far (re-applied after footprint regrowth).
    defects: DefectMap,
    layers_added: [usize; 4],
}

impl Deformer {
    /// Wraps a freshly built rectangular patch with zero enlargement budget.
    pub fn new(patch: Patch) -> Self {
        Deformer::with_budget(patch, EnlargeBudget::default())
    }

    /// Wraps a patch with an enlargement budget (`Δd` from the layout).
    ///
    /// # Panics
    ///
    /// Panics if the patch is not a clean rectangle.
    pub fn with_budget(patch: Patch, budget: EnlargeBudget) -> Self {
        let (origin, dims) = cell_footprint(&patch);
        assert_eq!(
            patch.num_data(),
            dims.0 * dims.1,
            "Deformer requires a clean rectangular starting patch"
        );
        let target = patch.distance();
        Deformer {
            patch,
            origin,
            dims,
            base_origin: origin,
            base_dims: dims,
            target,
            budget,
            defects: DefectMap::new(),
            layers_added: [0; 4],
        }
    }

    /// The current (deformed) patch.
    pub fn patch(&self) -> &Patch {
        &self.patch
    }

    /// The distances the deformer tries to restore.
    pub fn target_distance(&self) -> Distances {
        self.target
    }

    /// Remaining enlargement budget.
    pub fn budget(&self) -> EnlargeBudget {
        self.budget
    }

    /// **Algorithm 1** — removes the given defects from the code without
    /// enlargement. Interior data qubits use `DataQ_RM`, interior syndrome
    /// qubits `SyndromeQ_RM`, boundary qubits `PatchQ_RM` with balancing.
    ///
    /// Defects that cannot be removed without severing the logical qubit
    /// are reported in [`MitigationReport::kept`].
    ///
    /// # Errors
    ///
    /// Currently infallible in practice (unremovable defects are kept, not
    /// errors), but returns `Result` for future instruction failures.
    pub fn remove_defects(&mut self, defects: &DefectMap) -> Result<MitigationReport, DeformError> {
        for (q, info) in defects.iter() {
            self.defects.insert(q, info.error_rate);
        }
        let mut report = MitigationReport::default();
        apply_removal(&mut self.patch, defects, &mut report);
        report.distance = self.patch.distance();
        report.restored = report.distance.x >= self.target.x && report.distance.z >= self.target.z;
        report.layers_added = self.layers_added;
        Ok(report)
    }

    /// **Algorithm 1 + Algorithm 2** — removes defects, then adaptively
    /// enlarges the patch within the budget until the target distance is
    /// restored (or the budget/progress runs out).
    ///
    /// Enlargement regenerates the rectangular footprint one layer at a
    /// time and re-applies the removal subroutine to every known defect
    /// inside the new footprint — this realises the paper's handling of
    /// irregular boundaries and defective prospective layers (Fig. 9,
    /// Algorithm 2 line 24).
    ///
    /// # Errors
    ///
    /// See [`Deformer::remove_defects`].
    pub fn mitigate(&mut self, defects: &DefectMap) -> Result<MitigationReport, DeformError> {
        let mut report = self.remove_defects(defects)?;
        // Growth explores layer-by-layer and may pass through states worse
        // than its starting point (the stall counter tolerates up to three
        // non-improving layers so multi-layer recoveries stay reachable).
        // Remember the best state seen — footprint *and* budget, so rolled
        // back layers refund their inter-space — and restore it afterwards:
        // mitigation must never commit a net regression, and re-reporting
        // the same defects must be monotone. Meeting the (possibly
        // asymmetric) target outranks any raw-distance comparison.
        let target = self.target;
        let score = |d: Distances| (d.x >= target.x && d.z >= target.z, d.min(), d.x + d.z);
        let mut best_score = score(report.distance);
        let mut best = (!report.restored && self.budget.total() > 0).then(|| {
            (
                self.patch.clone(),
                self.origin,
                self.dims,
                self.layers_added,
                self.budget,
                report.distance,
            )
        });
        let mut stall = 0usize;
        while !report.restored && stall < 3 && self.budget.total() > 0 {
            // `report.distance` is always the current patch's distance.
            let d = report.distance;
            // Prefer the axis that is further from its target; fall back to
            // the other axis when the preferred one is out of budget.
            let x_deficit = self.target.x.saturating_sub(d.x);
            let z_deficit = self.target.z.saturating_sub(d.z);
            let mut candidates: Vec<(usize, BoundarySide)> = Vec::new();
            if x_deficit > 0 {
                let pri = if x_deficit >= z_deficit { 0 } else { 1 };
                candidates.push((pri, BoundarySide::Xl1));
                candidates.push((pri, BoundarySide::Xl2));
            }
            if z_deficit > 0 {
                let pri = if z_deficit > x_deficit { 0 } else { 1 };
                candidates.push((pri, BoundarySide::Zl1));
                candidates.push((pri, BoundarySide::Zl2));
            }
            let side = candidates
                .into_iter()
                .filter(|&(_, s)| self.budget.get(s) > 0)
                .min_by_key(|&(pri, s)| (pri, self.layer_defect_count(s)))
                .map(|(_, s)| s);
            let Some(side) = side else {
                break; // no budget on any needed axis
            };
            self.grow(side);
            let new_d = self.patch.distance();
            if score(new_d) > best_score {
                best_score = score(new_d);
                best = Some((
                    self.patch.clone(),
                    self.origin,
                    self.dims,
                    self.layers_added,
                    self.budget,
                    new_d,
                ));
            }
            if new_d.min() <= d.min() && new_d.x + new_d.z <= d.x + d.z {
                stall += 1;
            } else {
                stall = 0;
            }
            report.distance = new_d;
            report.restored = new_d.x >= self.target.x && new_d.z >= self.target.z;
        }
        if let Some((patch, origin, dims, layers_added, budget, distance)) = best {
            // `<=`, not `<`: the snapshot is only updated on strict
            // improvement, so on a tie it is the *cheapest* state achieving
            // this score — restoring refunds layers that bought nothing.
            if score(report.distance) <= best_score {
                self.patch = patch;
                self.origin = origin;
                self.dims = dims;
                self.layers_added = layers_added;
                self.budget = budget;
                report.distance = distance;
                report.restored =
                    report.distance.x >= self.target.x && report.distance.z >= self.target.z;
            }
        }
        report.layers_added = self.layers_added;
        // Growth regenerates the footprint and replays removal into a
        // scratch report, so the incremental removed/kept lists are stale by
        // now. Recompute both from final patch membership: a defect counts
        // as kept iff it is still an active qubit, removed iff it lies in
        // the footprint but is no longer active — never both. Defects
        // outside the footprint were never part of the code and appear in
        // neither list.
        let (ox, oy) = self.origin;
        let (w, h) = (self.dims.0 as i32, self.dims.1 as i32);
        report.removed.clear();
        report.kept.clear();
        for q in self.defects.qubits() {
            if self.patch.contains_data(q) || self.patch.contains_syndrome(q) {
                report.kept.push(q);
            } else if q.x >= 2 * ox && q.x <= 2 * (ox + w) && q.y >= 2 * oy && q.y <= 2 * (oy + h) {
                report.removed.push(q);
            }
        }
        Ok(report)
    }

    /// Re-plans the deformation from scratch against `detected` — the
    /// detector's *current* picture of the device, replacing any
    /// previously-reported defect set.
    ///
    /// The footprint resets to the pristine starting rectangle (layers
    /// added by earlier enlargements are reclaimed and their budget
    /// refunded), then [`Deformer::mitigate`] runs against exactly
    /// `detected`. This is the per-event step of the multi-event adaptive
    /// loop (`PatchTimeline::adaptive_schedule`): qubits that healed since
    /// the last report rejoin the code, qubits still flagged stay
    /// excised, and defects the detector missed at an earlier event get a
    /// second chance as soon as any later detection pass reports them.
    ///
    /// # Errors
    ///
    /// See [`Deformer::remove_defects`].
    pub fn replan(&mut self, detected: &DefectMap) -> Result<MitigationReport, DeformError> {
        self.budget.north += self.layers_added[0];
        self.budget.south += self.layers_added[1];
        self.budget.west += self.layers_added[2];
        self.budget.east += self.layers_added[3];
        self.layers_added = [0; 4];
        self.origin = self.base_origin;
        self.dims = self.base_dims;
        self.defects = DefectMap::new();
        self.patch = Patch::rectangle_at(self.origin.0, self.origin.1, self.dims.0, self.dims.1);
        self.mitigate(detected)
    }

    /// Number of known defects that would fall inside the prospective layer
    /// on `side` (paper Algorithm 2 `find_layer` cost).
    pub fn layer_defect_count(&self, side: BoundarySide) -> usize {
        let (ox, oy) = self.origin;
        let (w, h) = (self.dims.0 as i32, self.dims.1 as i32);
        self.defects
            .qubits()
            .into_iter()
            .filter(|q| {
                // Lattice coordinate band of the prospective layer.
                match side {
                    BoundarySide::Xl1 => q.y <= 2 * oy && q.y >= 2 * oy - 2,
                    BoundarySide::Xl2 => q.y >= 2 * (oy + h) && q.y <= 2 * (oy + h) + 2,
                    BoundarySide::Zl1 => q.x <= 2 * ox && q.x >= 2 * ox - 2,
                    BoundarySide::Zl2 => q.x >= 2 * (ox + w) && q.x <= 2 * (ox + w) + 2,
                }
            })
            .count()
    }

    /// Adds one layer on `side`: regenerates the footprint rectangle and
    /// replays the removal of every known defect inside it.
    fn grow(&mut self, side: BoundarySide) {
        self.budget.take(side);
        match side {
            BoundarySide::Xl1 => {
                self.origin.1 -= 1;
                self.dims.1 += 1;
                self.layers_added[0] += 1;
            }
            BoundarySide::Xl2 => {
                self.dims.1 += 1;
                self.layers_added[1] += 1;
            }
            BoundarySide::Zl1 => {
                self.origin.0 -= 1;
                self.dims.0 += 1;
                self.layers_added[2] += 1;
            }
            BoundarySide::Zl2 => {
                self.dims.0 += 1;
                self.layers_added[3] += 1;
            }
        }
        self.patch = Patch::rectangle_at(self.origin.0, self.origin.1, self.dims.0, self.dims.1);
        let mut scratch = MitigationReport::default();
        let defects = self.defects.clone();
        apply_removal(&mut self.patch, &defects, &mut scratch);
    }
}

/// The bounding footprint of `patch` in cell units: `(origin, dims)` of
/// the smallest cell rectangle containing it (the coordinate convention
/// `Patch::rectangle_at` consumes). Shared by the deformer and the
/// schedule loop's detection universe so the two can never desync.
pub(crate) fn cell_footprint(patch: &Patch) -> ((i32, i32), (usize, usize)) {
    let (min, max) = patch.bounding_box();
    let origin = ((min.x - 1) / 2, (min.y - 1) / 2);
    let dims = (
        ((max.x - min.x) / 2 + 1) as usize,
        ((max.y - min.y) / 2 + 1) as usize,
    );
    (origin, dims)
}

/// The body of Algorithm 1, shared by the deformer and the baselines.
pub(crate) fn apply_removal(patch: &mut Patch, defects: &DefectMap, report: &mut MitigationReport) {
    // Syndrome defects first (their octagons want intact neighbours), then
    // interior data, then boundary qubits.
    let mut syndrome = Vec::new();
    let mut interior = Vec::new();
    let mut boundary = Vec::new();
    for q in defects.qubits() {
        if patch.contains_data(q) {
            if patch.is_interior_data(q) {
                interior.push(q);
            } else {
                boundary.push(q);
            }
        } else if patch.contains_syndrome(q) {
            if patch.is_interior_syndrome(q) {
                syndrome.push(q);
            } else {
                boundary.push(q);
            }
        }
        // Defects outside the patch footprint are not ours to handle.
    }
    for q in syndrome {
        match syndrome_q_rm(patch, q) {
            Ok(_) => report.removed.push(q),
            Err(_) => report.kept.push(q),
        }
    }
    for q in interior {
        // Classification may have changed after earlier removals.
        if !patch.contains_data(q) {
            report.removed.push(q);
            continue;
        }
        let result = if patch.is_interior_data(q) {
            data_q_rm(patch, q)
        } else {
            patch_q_rm(patch, q, None).map(|(log, _)| log)
        };
        match result {
            Ok(_) => report.removed.push(q),
            Err(_) => report.kept.push(q),
        }
    }
    for q in boundary {
        if !patch.contains_data(q) && !patch.contains_syndrome(q) {
            report.removed.push(q);
            continue;
        }
        match patch_q_rm(patch, q, None) {
            Ok(_) => report.removed.push(q),
            Err(_) => report.kept.push(q),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use surf_defects::sample_uniform_defects;

    #[test]
    fn removal_handles_mixed_defects() {
        let mut deformer = Deformer::new(Patch::rotated(7));
        let defects =
            DefectMap::from_qubits([Coord::new(5, 5), Coord::new(6, 6), Coord::new(1, 7)], 0.5);
        let report = deformer.remove_defects(&defects).unwrap();
        deformer.patch().verify().unwrap();
        assert_eq!(report.removed.len() + report.kept.len(), 3);
        assert!(report.kept.is_empty());
        assert!(report.distance.min() >= 4, "{}", report.distance);
    }

    #[test]
    fn enlargement_restores_distance() {
        let mut deformer = Deformer::with_budget(Patch::rotated(5), EnlargeBudget::uniform(3));
        let defects = DefectMap::from_qubits([Coord::new(5, 5)], 0.5);
        let report = deformer.mitigate(&defects).unwrap();
        deformer.patch().verify().unwrap();
        assert!(report.restored, "distance {}", report.distance);
        assert!(report.distance.x >= 5 && report.distance.z >= 5);
        // Adaptive: at most a couple of layers, far less than doubling.
        let layers: usize = report.layers_added.iter().sum();
        assert!((1..=3).contains(&layers), "layers {layers}");
    }

    #[test]
    fn enlargement_respects_budget() {
        let mut deformer = Deformer::with_budget(Patch::rotated(5), EnlargeBudget::default());
        let defects = DefectMap::from_qubits([Coord::new(5, 5)], 0.5);
        let report = deformer.mitigate(&defects).unwrap();
        assert_eq!(report.layers_added, [0; 4]);
        assert!(!report.restored);
    }

    #[test]
    fn grows_on_the_cheaper_side() {
        // A defect near the north edge makes the northern prospective layer
        // dirtier; growth should prefer the south.
        let mut deformer = Deformer::with_budget(Patch::rotated(5), EnlargeBudget::uniform(2));
        // Defect inside patch + one hovering just north of the patch.
        let mut defects = DefectMap::from_qubits([Coord::new(5, 5)], 0.5);
        defects.insert(Coord::new(5, -1), 0.5);
        let report = deformer.mitigate(&defects).unwrap();
        assert!(report.layers_added[1] >= report.layers_added[0]);
    }

    #[test]
    fn random_defect_storm_stays_valid() {
        let mut rng = StdRng::seed_from_u64(2024);
        for d in [5, 7] {
            let patch = Patch::rotated(d);
            let mut universe = patch.data_qubits();
            universe.extend(patch.syndrome_qubits());
            for k in [3, 6, 10] {
                let defects = sample_uniform_defects(&universe, k, 0.5, &mut rng);
                let mut deformer = Deformer::with_budget(patch.clone(), EnlargeBudget::uniform(4));
                let report = deformer.mitigate(&defects).unwrap();
                deformer
                    .patch()
                    .verify()
                    .unwrap_or_else(|e| panic!("d={d} k={k}: {e}"));
                assert!(report.distance.min() >= 1);
            }
        }
    }

    /// Sorted qubit sets of a patch, for geometry comparison.
    fn footprint(p: &Patch) -> (Vec<Coord>, Vec<Coord>) {
        (p.data_qubits(), p.syndrome_qubits())
    }

    #[test]
    fn replan_with_empty_set_restores_the_pristine_patch() {
        let original = Patch::rotated(5);
        let mut deformer = Deformer::with_budget(original.clone(), EnlargeBudget::uniform(2));
        let defects = DefectMap::from_qubits([Coord::new(5, 5), Coord::new(4, 4)], 0.5);
        deformer.mitigate(&defects).unwrap();
        assert_ne!(footprint(deformer.patch()), footprint(&original));
        // Everything healed: the replan reclaims the original geometry and
        // refunds any spent enlargement budget.
        let report = deformer.replan(&DefectMap::new()).unwrap();
        assert_eq!(footprint(deformer.patch()), footprint(&original));
        assert_eq!(deformer.budget(), EnlargeBudget::uniform(2));
        assert!(report.removed.is_empty() && report.kept.is_empty());
        assert_eq!(report.layers_added, [0; 4]);
        assert!(report.restored);
    }

    #[test]
    fn replan_equals_a_fresh_mitigation_of_the_same_set() {
        // The replan is stateless in the detected set: whatever was
        // reported before, replan(detected) lands on the same geometry a
        // fresh deformer would produce for `detected` alone.
        let base = Patch::rotated(5);
        let first = DefectMap::from_qubits([Coord::new(5, 5)], 0.5);
        let second = DefectMap::from_qubits([Coord::new(3, 3), Coord::new(7, 7)], 0.5);
        let mut chained = Deformer::with_budget(base.clone(), EnlargeBudget::uniform(2));
        chained.mitigate(&first).unwrap();
        let chained_report = chained.replan(&second).unwrap();
        let mut fresh = Deformer::with_budget(base, EnlargeBudget::uniform(2));
        let fresh_report = fresh.mitigate(&second).unwrap();
        assert_eq!(footprint(chained.patch()), footprint(fresh.patch()));
        assert_eq!(chained_report.removed, fresh_report.removed);
        assert_eq!(chained_report.kept, fresh_report.kept);
        assert_eq!(chained_report.layers_added, fresh_report.layers_added);
        assert_eq!(chained.budget(), fresh.budget());
        // The first event's qubits are back in the code (they healed).
        assert!(chained.patch().contains_data(Coord::new(5, 5)));
    }

    #[test]
    fn defective_scale_layer_triggers_second_layer() {
        // Paper Fig. 9(c)(d): a defect sitting in the prospective layer
        // forces two layers to restore the distance.
        let mut deformer = Deformer::with_budget(Patch::rotated(5), EnlargeBudget::uniform(3));
        let mut defects = DefectMap::from_qubits([Coord::new(5, 5)], 0.5);
        // Defects across the entire southern prospective layer region.
        for c in 0..5 {
            defects.insert(Coord::new(2 * c + 1, 11), 0.5);
        }
        let report = deformer.mitigate(&defects).unwrap();
        deformer.patch().verify().unwrap();
        let layers: usize = report.layers_added.iter().sum();
        assert!(layers >= 2, "needs more than one layer: {layers}");
    }
}
