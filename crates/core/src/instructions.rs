//! The four Surf-Deformer deformation instructions (paper Section IV).
//!
//! Each instruction mutates a [`Patch`] geometrically and returns the
//! [`GaugeTransformLog`] of atomic S2G/G2S/S2S/G2G steps it corresponds to,
//! which can be replayed on the tableau simulator to verify logical-state
//! preservation (paper Appendix A).
//!
//! | Instruction | Target | Effect |
//! |---|---|---|
//! | [`data_q_rm`] | interior data qubit | super-stabilizer hole (Fig. 6a) |
//! | [`syndrome_q_rm`] | interior syndrome qubit | octagon + weight-1 gauges (Fig. 6b) |
//! | [`patch_q_rm`] | boundary qubit | boundary deformation with X/Z balancing (Fig. 6c, Fig. 8) |
//! | [`patch_q_add`] | a boundary | one-layer enlargement (Fig. 6d) |

use std::collections::BTreeSet;
use std::fmt;

use surf_lattice::{check_string, Basis, BoundarySide, Coord, Patch, RerouteError};
use surf_pauli::{Pauli, PauliString};
use surf_stabilizer::{GaugeStep, GaugeTransformLog};

/// Failure of a deformation instruction.
#[derive(Clone, Debug, PartialEq)]
pub enum DeformError {
    /// The coordinate is not a data qubit of the patch.
    NotData(Coord),
    /// The coordinate is not an ancilla of any check.
    NotSyndrome(Coord),
    /// Removing the qubit would sever the logical qubit.
    Severed(RerouteError),
    /// `patch_q_add` requires a clean rectangular patch.
    NotRectangular,
    /// The enlargement budget for the requested side is exhausted.
    BudgetExhausted(BoundarySide),
}

impl fmt::Display for DeformError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeformError::NotData(c) => write!(f, "{c} is not a data qubit of the patch"),
            DeformError::NotSyndrome(c) => write!(f, "{c} is not a syndrome qubit of the patch"),
            DeformError::Severed(e) => write!(f, "deformation severs the logical qubit: {e}"),
            DeformError::NotRectangular => {
                write!(f, "patch_q_add requires a clean rectangular patch")
            }
            DeformError::BudgetExhausted(s) => {
                write!(f, "no enlargement budget left on side {s:?}")
            }
        }
    }
}

impl std::error::Error for DeformError {}

impl From<RerouteError> for DeformError {
    fn from(e: RerouteError) -> Self {
        DeformError::Severed(e)
    }
}

/// **`DataQ_RM`** — removes a single data qubit (paper Fig. 6a).
///
/// The two X-checks and two Z-checks covering the qubit lose it from their
/// supports and merge into X/Z gauge groups whose products are the
/// super-stabilizers; X- and Z-side constituents anti-commute and will be
/// measured on alternating rounds.
///
/// Works for interior qubits (the classic super-stabilizer) and degrades
/// gracefully on boundary qubits (fewer adjacent checks), though
/// [`patch_q_rm`] usually yields better distance there.
///
/// # Errors
///
/// [`DeformError::NotData`] or [`DeformError::Severed`].
pub fn data_q_rm(patch: &mut Patch, q: Coord) -> Result<GaugeTransformLog, DeformError> {
    if !patch.contains_data(q) {
        return Err(DeformError::NotData(q));
    }
    let avoid: BTreeSet<Coord> = [q].into_iter().collect();
    patch.reroute_logicals_avoiding(&avoid)?;
    let mut log = GaugeTransformLog::new();
    // Log the algebraic steps before mutating: introduce X_q and Z_q as new
    // gauges, demoting the anti-commuting plaquettes, then G2G them off q.
    for (new_basis, demoted_basis) in [(Basis::X, Basis::Z), (Basis::Z, Basis::X)] {
        let demoted: Vec<PauliString> = patch
            .checks_on_data(q, demoted_basis)
            .into_iter()
            .map(|id| {
                let c = patch.check(id).unwrap();
                check_string(c.basis, &c.support)
            })
            .collect();
        let new_gauge = PauliString::from_pairs([(
            q.key(),
            match new_basis {
                Basis::X => Pauli::X,
                Basis::Z => Pauli::Z,
            },
        )]);
        for d in &demoted {
            let mut product = d.clone();
            product.erase(q.key());
            log.push(GaugeStep::G2G {
                gauge: d.clone(),
                multiplier: new_gauge.clone(),
                product,
            });
        }
        log.insert(
            log.len() - demoted.len(),
            GaugeStep::S2G { new_gauge, demoted },
        );
    }
    patch.remove_data(q);
    patch.normalize_groups();
    fix_stranded_qubits(patch);
    Ok(log)
}

/// **`SyndromeQ_RM`** — removes a single syndrome qubit (paper Fig. 6b).
///
/// For a defective ancilla measuring check `s0` of basis `B` on data qubits
/// `q1..q4`:
///
/// * every other `B`-check covering a `qi` drops that qubit; together they
///   form one gauge group whose product is the *octagon* super-stabilizer
///   `s0 · ∏ s_diag` — measurable without the broken ancilla;
/// * a weight-1 check of the opposite basis is added on each `qi`
///   (their product is the paper's `X₁₂₃₄`-style stabilizer), maximising
///   the utility of the intact data qubits.
///
/// # Errors
///
/// [`DeformError::NotSyndrome`] or [`DeformError::Severed`].
pub fn syndrome_q_rm(patch: &mut Patch, anc: Coord) -> Result<GaugeTransformLog, DeformError> {
    let id = patch
        .check_at_ancilla(anc)
        .ok_or(DeformError::NotSyndrome(anc))?;
    let (basis, support) = {
        let c = patch.check(id).unwrap();
        (c.basis, c.support.clone())
    };
    patch.reroute_logicals_avoiding(&support)?;
    let mut log = GaugeTransformLog::new();
    let opposite = basis.opposite();
    let s0_string = check_string(basis, &support);

    // Gauge out s0 (and truncate the neighbouring same-basis checks) by
    // introducing a weight-1 opposite-basis gauge on each support qubit.
    let mut octagon = s0_string.clone();
    for &qi in &support {
        let single = check_string(opposite, &[qi]);
        let mut demoted = vec![];
        for cid in patch.checks_on_data(qi, basis) {
            if cid == id {
                continue;
            }
            let c = patch.check(cid).unwrap();
            let full = check_string(c.basis, &c.support);
            octagon.multiply_assign(&full);
            demoted.push(full);
            let mut new_support = c.support.clone();
            new_support.remove(&qi);
            if new_support.is_empty() {
                patch.remove_check(cid);
            } else {
                patch.set_check_support(cid, new_support);
            }
        }
        log.push(GaugeStep::S2G {
            new_gauge: single.clone(),
            demoted,
        });
        // The weight-1 check is measured every round from now on.
        patch.add_check(opposite, [qi].into_iter().collect(), None, None);
    }
    patch.remove_check(id);
    // The octagon (product of the truncated checks) is promoted back to a
    // stabilizer, measured through its constituents.
    octagon.multiply_assign(&s0_string); // remove s0 from the product: now ∏ d_i
    let octagon_stab = {
        // ∏ (d_i \ q_i) = ∏ d_i · s0.
        let mut o = octagon.clone();
        o.multiply_assign(&s0_string);
        o
    };
    log.push(GaugeStep::G2S {
        promoted: octagon_stab,
        correction: PauliString::identity(),
    });
    patch.normalize_groups();
    fix_stranded_qubits(patch);
    Ok(log)
}

/// **`PatchQ_RM`** — removes a boundary qubit by deforming the boundary
/// (paper Fig. 6c).
///
/// For a data qubit, the single-qubit operator of basis `fix` is fixed as a
/// stabilizer (measuring the qubit out), which deletes the opposite-basis
/// checks covering it and truncates the same-basis ones. With `fix: None`
/// the *balancing* rule of paper Fig. 8 picks the basis that maximises the
/// resulting `min(dx, dz)`.
///
/// For a syndrome qubit, the broken boundary check is simply retired.
///
/// Returns the log and the basis actually fixed (if a data qubit).
///
/// # Errors
///
/// [`DeformError::NotData`]/[`DeformError::NotSyndrome`] if the coordinate
/// is not part of the patch, [`DeformError::Severed`] if the logical cannot
/// be rerouted.
pub fn patch_q_rm(
    patch: &mut Patch,
    q: Coord,
    fix: Option<Basis>,
) -> Result<(GaugeTransformLog, Option<Basis>), DeformError> {
    if q.is_syndrome_site() || (!patch.contains_data(q) && patch.contains_syndrome(q)) {
        let id = patch
            .check_at_ancilla(q)
            .ok_or(DeformError::NotSyndrome(q))?;
        let (support, retired) = {
            let c = patch.check(id).unwrap();
            (c.support.clone(), check_string(c.basis, &c.support))
        };
        // Move the logicals off the retired region while the check is still
        // available as a stabilizer; otherwise the logical entangles with
        // the lost (unmeasured) degree of freedom. Which representative we
        // commit to decides the surviving distance, so try both a tight
        // avoid set (the support) and a wide one (a Chebyshev-4 band around
        // the ancilla) and keep whichever patch ends up stronger.
        let wide: BTreeSet<Coord> = patch
            .data_qubits()
            .into_iter()
            .filter(|&c| c.chebyshev(q) <= 4)
            .collect();
        let mut best: Option<(Patch, (usize, usize))> = None;
        for avoid in [&wide, &support] {
            let mut trial = patch.clone();
            let _ = trial.reroute_logicals_avoiding(avoid);
            trial.remove_check(id);
            trial.normalize_groups();
            fix_stranded_qubits(&mut trial);
            let td = trial.distance();
            let key = (td.min(), td.x + td.z);
            if best.as_ref().is_none_or(|(_, best_key)| key > *best_key) {
                best = Some((trial, key));
            }
        }
        *patch = best.expect("at least one candidate evaluated").0;
        let log = vec![GaugeStep::S2G {
            new_gauge: retired.clone(),
            demoted: vec![retired],
        }];
        return Ok((log, None));
    }
    if !patch.contains_data(q) {
        return Err(DeformError::NotData(q));
    }
    let basis = match fix {
        Some(b) => b,
        None => balance_fix_basis(patch, q)?,
    };
    let log = patch_q_rm_fixed(patch, q, basis)?;
    Ok((log, Some(basis)))
}

/// The balancing rule (paper Fig. 8): evaluate both fix bases on clones and
/// keep the one with the larger `min(dx, dz)` (ties: larger `dx + dz`).
fn balance_fix_basis(patch: &Patch, q: Coord) -> Result<Basis, DeformError> {
    let mut best: Option<(Basis, usize, usize)> = None;
    let mut last_err = None;
    for basis in [Basis::X, Basis::Z] {
        let mut trial = patch.clone();
        match patch_q_rm_fixed(&mut trial, q, basis) {
            Ok(_) => {
                let d = trial.distance();
                let key = (d.min(), d.x + d.z);
                if best.map(|(_, m, s)| key > (m, s)).unwrap_or(true) {
                    best = Some((basis, key.0, key.1));
                }
            }
            Err(e) => last_err = Some(e),
        }
    }
    match best {
        Some((basis, _, _)) => Ok(basis),
        None => Err(last_err.expect("both trial bases failed without error")),
    }
}

fn patch_q_rm_fixed(
    patch: &mut Patch,
    q: Coord,
    fix: Basis,
) -> Result<GaugeTransformLog, DeformError> {
    let avoid: BTreeSet<Coord> = [q].into_iter().collect();
    patch.reroute_logicals_avoiding(&avoid)?;
    let mut log = GaugeTransformLog::new();
    let fixed_op = check_string(fix, &[q]);
    // Fixing e.g. Z_q demotes (and here: retires) the X-checks covering q…
    let demoted: Vec<PauliString> = patch
        .checks_on_data(q, fix.opposite())
        .into_iter()
        .map(|cid| {
            let c = patch.check(cid).unwrap();
            let s = check_string(c.basis, &c.support);
            patch.remove_check(cid);
            s
        })
        .collect();
    log.push(GaugeStep::S2G {
        new_gauge: fixed_op.clone(),
        demoted,
    });
    // …and the same-basis checks truncate (multiplication by the fixed
    // stabilizer), logged as S2S steps.
    for cid in patch.checks_on_data(q, fix) {
        let c = patch.check(cid).unwrap();
        let full = check_string(c.basis, &c.support);
        let mut product = full.clone();
        product.erase(q.key());
        log.push(GaugeStep::S2S {
            factors: [full, fixed_op.clone()],
            product,
        });
    }
    log.push(GaugeStep::G2S {
        promoted: fixed_op,
        correction: check_string(fix.opposite(), &[q]),
    });
    patch.remove_data(q);
    patch.normalize_groups();
    fix_stranded_qubits(patch);
    Ok(log)
}

/// **`PatchQ_ADD`** — grows a clean rectangular patch by one data layer on
/// the given boundary (paper Fig. 6d).
///
/// New data qubits are initialised in |0⟩ (growing west/east) or |+⟩
/// (north/south), i.e. fixed single-qubit stabilizers, after which the new
/// plaquettes are promoted with G2S. Returns the enlarged patch's log.
///
/// Irregular (deformed) patches are enlarged by the higher-level
/// [`crate::Deformer`], which regenerates the footprint and replays the
/// removals (paper Algorithm 2 line 24).
///
/// # Errors
///
/// [`DeformError::NotRectangular`] if the patch has holes or ragged edges.
pub fn patch_q_add(
    patch: &mut Patch,
    side: BoundarySide,
) -> Result<GaugeTransformLog, DeformError> {
    let (min, max) = patch.bounding_box();
    let (cx, cy) = ((min.x - 1) / 2, (min.y - 1) / 2);
    let w = ((max.x - min.x) / 2 + 1) as usize;
    let h = ((max.y - min.y) / 2 + 1) as usize;
    if patch.num_data() != w * h {
        return Err(DeformError::NotRectangular);
    }
    let (ncx, ncy, nw, nh) = match side {
        BoundarySide::Xl1 => (cx, cy - 1, w, h + 1),
        BoundarySide::Xl2 => (cx, cy, w, h + 1),
        BoundarySide::Zl1 => (cx - 1, cy, w + 1, h),
        BoundarySide::Zl2 => (cx, cy, w + 1, h),
    };
    let old_checks: BTreeSet<(Basis, BTreeSet<Coord>)> = patch
        .checks()
        .map(|(_, c)| (c.basis, c.support.clone()))
        .collect();
    let old_data: BTreeSet<Coord> = patch.data_qubits().into_iter().collect();
    let grown = Patch::rectangle_at(ncx, ncy, nw, nh);
    // Build the log: init stabilizers for new qubits, then promote the new
    // or widened checks.
    let mut log = GaugeTransformLog::new();
    let init_basis = side.logical_basis();
    for q in grown.data_qubits() {
        if !old_data.contains(&q) {
            log.push(GaugeStep::G2S {
                promoted: check_string(init_basis, &[q]),
                correction: check_string(init_basis.opposite(), &[q]),
            });
        }
    }
    for (_, c) in grown.checks() {
        if !old_checks.contains(&(c.basis, c.support.clone())) {
            let touches_new = c.support.iter().any(|q| !old_data.contains(q));
            let correction = c
                .support
                .iter()
                .find(|q| !old_data.contains(q))
                .map(|q| check_string(c.basis.opposite(), &[*q]))
                .unwrap_or_else(PauliString::identity);
            if touches_new {
                log.push(GaugeStep::G2S {
                    promoted: check_string(c.basis, &c.support),
                    correction,
                });
            }
        }
    }
    *patch = grown;
    Ok(log)
}

/// After a large removal cluster, some surviving data qubits can end up
/// with no checks of one basis at all. Such a qubit carries an unprotected
/// degree of freedom: the logical of the *opposite* basis is rerouted off
/// it and a weight-1 check pins the qubit (exactly like the corner qubits
/// of `SyndromeQ_RM`). Fully disconnected qubits are excluded outright.
pub fn fix_stranded_qubits(patch: &mut Patch) {
    // One pass over the checks builds the per-basis coverage lists.
    let mut covered_x: Vec<Coord> = Vec::new();
    let mut covered_z: Vec<Coord> = Vec::new();
    for (_, c) in patch.checks() {
        match c.basis {
            Basis::X => covered_x.extend(c.support.iter().copied()),
            Basis::Z => covered_z.extend(c.support.iter().copied()),
        }
    }
    for covered in [&mut covered_x, &mut covered_z] {
        covered.sort_unstable();
        covered.dedup();
    }
    let mut changed = false;
    for q in patch.data_qubits() {
        let has_x = covered_x.binary_search(&q).is_ok();
        let has_z = covered_z.binary_search(&q).is_ok();
        let avoid = || BTreeSet::from([q]);
        match (has_x, has_z) {
            (true, true) => {}
            (false, false) => {
                // Fully disconnected: drop the qubit if the logicals allow.
                if patch.reroute_logicals_avoiding(&avoid()).is_ok() {
                    patch.remove_data(q);
                    changed = true;
                }
            }
            // No Z coverage: q lives in the X sector; Z_L must avoid it and
            // a weight-1 X check pins its X degree of freedom.
            (true, false) => {
                if patch.reroute_logical_avoiding(Basis::Z, &avoid()).is_ok() {
                    patch.add_check(Basis::X, avoid(), None, None);
                    changed = true;
                }
            }
            (false, true) => {
                if patch.reroute_logical_avoiding(Basis::X, &avoid()).is_ok() {
                    patch.add_check(Basis::Z, avoid(), None, None);
                    changed = true;
                }
            }
        }
    }
    if changed {
        patch.normalize_groups();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use surf_lattice::Distances;

    #[test]
    fn data_q_rm_interior_keeps_structure() {
        let mut p = Patch::rotated(5);
        let q = Coord::new(5, 5);
        let log = data_q_rm(&mut p, q).unwrap();
        p.verify().unwrap();
        assert_eq!(p.num_data(), 24);
        // Two gauge groups of two checks each (X and Z super-stabilizers).
        let multi: Vec<_> = p
            .group_ids()
            .into_iter()
            .filter(|&g| p.group_members(g).len() == 2)
            .collect();
        assert_eq!(multi.len(), 2);
        assert!(log.iter().any(|s| matches!(s, GaugeStep::S2G { .. })));
        // Distance drops by at most 1 for a single interior removal.
        let d = p.distance();
        assert!(d.x >= 4 && d.z >= 4, "{d}");
    }

    #[test]
    fn data_q_rm_missing_qubit_errors() {
        let mut p = Patch::rotated(3);
        assert_eq!(
            data_q_rm(&mut p, Coord::new(99, 99)).unwrap_err(),
            DeformError::NotData(Coord::new(99, 99))
        );
    }

    #[test]
    fn syndrome_q_rm_builds_octagon() {
        let mut p = Patch::rotated(5);
        let anc = Coord::new(4, 4); // interior Z plaquette
        assert!(p.is_interior_syndrome(anc));
        let basis = p.check(p.check_at_ancilla(anc).unwrap()).unwrap().basis;
        assert_eq!(basis, Basis::Z);
        syndrome_q_rm(&mut p, anc).unwrap();
        p.verify().unwrap();
        // Data count unchanged; the ancilla's check is gone; 4 weight-1
        // opposite-basis checks appeared.
        assert_eq!(p.num_data(), 25);
        assert!(p.check_at_ancilla(anc).is_none());
        let weight1 = p
            .checks()
            .filter(|(_, c)| c.support.len() == 1 && c.basis == Basis::X)
            .count();
        assert_eq!(weight1, 4);
        // The octagon: one Z gauge group of 4 truncated checks whose
        // product has weight 12 (the diamond ring).
        let octagon = p
            .group_ids()
            .into_iter()
            .find(|&g| p.group_basis(g) == Some(Basis::Z) && p.group_members(g).len() == 4)
            .expect("octagon group missing");
        assert_eq!(p.group_product(octagon).len(), 12);
        assert!(p.is_stabilizer_group(octagon));
    }

    #[test]
    fn syndrome_q_rm_fig7_distances() {
        // Paper Fig. 7(a): on d=5, SyndromeQ_RM keeps more distance than
        // ASC-S's four DataQ_RM. The basis aligned with the broken check
        // drops to 3.
        let mut ours = Patch::rotated(5);
        syndrome_q_rm(&mut ours, Coord::new(4, 4)).unwrap();
        let d_ours = ours.distance();
        // Removing the Z ancilla weakens X-error detection: dx = 3.
        assert_eq!(d_ours.x, 3, "{d_ours}");
        assert!(d_ours.z >= 3);

        let mut asc = Patch::rotated(5);
        for q in Coord::new(4, 4).diagonal_neighbors() {
            data_q_rm(&mut asc, q).unwrap();
        }
        asc.verify().unwrap();
        let d_asc = asc.distance();
        assert!(
            d_ours.x + d_ours.z >= d_asc.x + d_asc.z,
            "SyndromeQ_RM {d_ours} must not lose to 4×DataQ_RM {d_asc}"
        );
    }

    #[test]
    fn syndrome_q_rm_beats_asc_at_larger_distance() {
        for d in [7, 9] {
            let center = d as i32 - 1; // centre plaquette coordinate
            let anc = Coord::new(center, center);
            let mut ours = Patch::rotated(d);
            if !ours.is_interior_syndrome(anc) {
                // Pick any interior plaquette instead.
                continue;
            }
            syndrome_q_rm(&mut ours, anc).unwrap();
            ours.verify().unwrap();
            let mut asc = Patch::rotated(d);
            for q in anc.diagonal_neighbors() {
                data_q_rm(&mut asc, q).unwrap();
            }
            let ours_d = ours.distance();
            let asc_d = asc.distance();
            assert!(
                ours_d.min() >= asc_d.min() && ours_d.x + ours_d.z >= asc_d.x + asc_d.z,
                "d={d}: SyndromeQ_RM {ours_d} vs ASC {asc_d}"
            );
            // The unconditional win: ASC-S discards four healthy data
            // qubits per syndrome defect, SyndromeQ_RM keeps them all.
            assert_eq!(ours.num_data(), d * d);
            assert_eq!(asc.num_data(), d * d - 4);
        }
    }

    #[test]
    fn syndrome_q_rm_keeps_qubits_on_clustered_defects() {
        // Two diagonally adjacent defective Z-ancillas on d=9: ASC-S blows
        // an 8-qubit hole, SyndromeQ_RM keeps every data qubit, and the
        // surviving distance is never worse.
        let ancs = [Coord::new(8, 8), Coord::new(12, 12)];
        let mut ours = Patch::rotated(9);
        for a in ancs {
            syndrome_q_rm(&mut ours, a).unwrap();
        }
        ours.verify().unwrap();
        let mut asc = Patch::rotated(9);
        for a in ancs {
            for q in a.diagonal_neighbors() {
                if asc.contains_data(q) {
                    if asc.is_interior_data(q) {
                        data_q_rm(&mut asc, q).unwrap();
                    } else {
                        patch_q_rm(&mut asc, q, Some(Basis::Z)).unwrap();
                    }
                }
            }
        }
        asc.verify().unwrap();
        let ours_d = ours.distance();
        let asc_d = asc.distance();
        assert!(
            ours_d.x + ours_d.z >= asc_d.x + asc_d.z,
            "clustered: SyndromeQ_RM {ours_d} must not lose to ASC {asc_d}"
        );
        assert_eq!(ours.num_data(), 81);
        assert_eq!(asc.num_data(), 81 - 8);
    }

    #[test]
    fn patch_q_rm_boundary_data() {
        let mut p = Patch::rotated(5);
        let q = Coord::new(5, 1); // north edge, not a corner
        let (log, basis) = patch_q_rm(&mut p, q, None).unwrap();
        p.verify().unwrap();
        assert!(basis.is_some());
        assert!(!log.is_empty());
        assert_eq!(p.num_data(), 24);
        let d = p.distance();
        assert!(d.min() >= 4, "boundary removal keeps distance high: {d}");
    }

    #[test]
    fn patch_q_rm_corner_balancing_matches_fig8() {
        // Paper Fig. 8: at a corner the two fix choices give unbalanced
        // (e.g. 5/3) vs balanced (4/4) distances; balancing picks the
        // better min.
        let mut opts = Vec::new();
        for basis in [Basis::X, Basis::Z] {
            let mut p = Patch::rotated(5);
            patch_q_rm(&mut p, Coord::new(9, 1), Some(basis)).unwrap();
            p.verify().unwrap();
            opts.push((basis, p.distance()));
        }
        let mut balanced = Patch::rotated(5);
        let (_, chosen) = patch_q_rm(&mut balanced, Coord::new(9, 1), None).unwrap();
        let d = balanced.distance();
        let best_min = opts.iter().map(|(_, d)| d.min()).max().unwrap();
        assert_eq!(d.min(), best_min, "balancing must pick the best option");
        assert!(chosen.is_some());
        // The two options genuinely differ (the design space exists).
        assert_ne!(opts[0].1, opts[1].1, "fix choices should differ: {opts:?}");
    }

    #[test]
    fn patch_q_rm_boundary_syndrome() {
        let mut p = Patch::rotated(5);
        let anc = p
            .checks()
            .find(|(_, c)| c.support.len() == 2)
            .and_then(|(_, c)| c.ancilla)
            .unwrap();
        let before = p.num_checks();
        patch_q_rm(&mut p, anc, None).unwrap();
        p.verify().unwrap();
        assert_eq!(p.num_checks(), before - 1);
        assert_eq!(p.num_data(), 25);
    }

    #[test]
    fn patch_q_add_grows_each_side() {
        for (side, dims) in [
            (BoundarySide::Xl1, (5, 6)),
            (BoundarySide::Xl2, (5, 6)),
            (BoundarySide::Zl1, (6, 5)),
            (BoundarySide::Zl2, (6, 5)),
        ] {
            let mut p = Patch::rotated(5);
            let log = patch_q_add(&mut p, side).unwrap();
            p.verify().unwrap();
            assert_eq!(p.num_data(), dims.0 * dims.1, "{side:?}");
            let d = p.distance();
            let expect = Distances {
                x: dims.1,
                z: dims.0,
            };
            assert_eq!(d, expect, "{side:?}");
            assert!(!log.is_empty());
        }
    }

    #[test]
    fn patch_q_add_rejects_deformed_patch() {
        let mut p = Patch::rotated(5);
        data_q_rm(&mut p, Coord::new(5, 5)).unwrap();
        assert_eq!(
            patch_q_add(&mut p, BoundarySide::Xl1).unwrap_err(),
            DeformError::NotRectangular
        );
    }

    #[test]
    fn instructions_commute_on_disjoint_defects() {
        // Paper Section V: removal instructions commute. Apply two removals
        // in both orders and compare the resulting code structure.
        let (a, b) = (Coord::new(3, 3), Coord::new(7, 7));
        let mut p1 = Patch::rotated(5);
        data_q_rm(&mut p1, a).unwrap();
        data_q_rm(&mut p1, b).unwrap();
        let mut p2 = Patch::rotated(5);
        data_q_rm(&mut p2, b).unwrap();
        data_q_rm(&mut p2, a).unwrap();
        assert_eq!(p1.distance(), p2.distance());
        assert_eq!(p1.num_data(), p2.num_data());
        let sig = |p: &Patch| {
            let mut v: Vec<(Basis, Vec<Coord>)> = p
                .checks()
                .map(|(_, c)| (c.basis, c.support.iter().copied().collect()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(sig(&p1), sig(&p2));
    }

    #[test]
    fn adjacent_removals_merge_into_larger_hole() {
        let mut p = Patch::rotated(7);
        data_q_rm(&mut p, Coord::new(5, 5)).unwrap();
        data_q_rm(&mut p, Coord::new(7, 5)).unwrap();
        p.verify().unwrap();
        // The X (or Z) checks around both holes form one bigger group.
        let max_group = p
            .group_ids()
            .into_iter()
            .map(|g| p.group_members(g).len())
            .max()
            .unwrap();
        assert!(max_group >= 3, "adjacent holes merge: {max_group}");
        assert!(p.distance().min() >= 4);
    }
}
