//! Output checks applied to every job.

use crate::JobError;
use grasp_core::prelude::{OutcomeDetail, Skeleton, SkeletonOutcome};

/// Every leaf unit of `skeleton` completed exactly once.
pub fn conserved(outcome: &SkeletonOutcome, skeleton: &Skeleton) -> Result<(), JobError> {
    if outcome.conserves_units_of(skeleton) {
        Ok(())
    } else {
        Err(JobError::Wrong(format!(
            "unit set not conserved: {} of {} units completed",
            outcome.completed,
            skeleton.work_units()
        )))
    }
}

/// Each unit's result digest equals the locally computed reference:
/// `reference[id]` is the digest unit `id` must report.
pub fn digests_match(unit_digests: &[(usize, u64)], reference: &[u64]) -> Result<(), JobError> {
    if unit_digests.len() != reference.len() {
        return Err(JobError::Wrong(format!(
            "{} unit digests reported for {} units",
            unit_digests.len(),
            reference.len()
        )));
    }
    let mut seen = vec![false; reference.len()];
    for &(id, digest) in unit_digests {
        match reference.get(id) {
            None => return Err(JobError::Wrong(format!("digest for unknown unit {id}"))),
            Some(&want) if want != digest => {
                return Err(JobError::Wrong(format!(
                    "unit {id} digest {digest:#018x}, reference {want:#018x}"
                )))
            }
            Some(_) if seen[id] => {
                return Err(JobError::Wrong(format!("unit {id} reported twice")))
            }
            Some(_) => seen[id] = true,
        }
    }
    Ok(())
}

/// The process-farm digests of `outcome`, checked against `reference`.
pub fn proc_digests(outcome: &SkeletonOutcome, reference: &[u64]) -> Result<(), JobError> {
    match &outcome.detail {
        OutcomeDetail::ProcFarm { unit_digests, .. } => digests_match(unit_digests, reference),
        _ => Err(JobError::Wrong(
            "the process farm returned another backend's outcome".to_string(),
        )),
    }
}

/// A simulated run's virtual makespan repeats bit for bit for one seed.
pub fn makespan_repeats(first: f64, this: f64) -> Result<(), JobError> {
    if first.to_bits() == this.to_bits() {
        Ok(())
    } else {
        Err(JobError::Wrong(format!(
            "virtual makespan {this} differs from the seed's first run {first}"
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matching_digests_pass_in_any_order() {
        let reference = [11, 22, 33];
        assert_eq!(
            digests_match(&[(2, 33), (0, 11), (1, 22)], &reference),
            Ok(())
        );
    }

    #[test]
    fn a_corrupted_digest_is_caught() {
        let reference = [11, 22, 33];
        let corrupted = [(0, 11), (1, 22 ^ 1), (2, 33)];
        assert!(matches!(
            digests_match(&corrupted, &reference),
            Err(JobError::Wrong(_))
        ));
    }

    #[test]
    fn missing_duplicate_and_unknown_units_are_caught() {
        let reference = [11, 22];
        assert!(digests_match(&[(0, 11)], &reference).is_err());
        assert!(digests_match(&[(0, 11), (0, 11)], &reference).is_err());
        assert!(digests_match(&[(0, 11), (5, 22)], &reference).is_err());
    }

    #[test]
    fn makespans_must_repeat_exactly() {
        assert!(makespan_repeats(1.5, 1.5).is_ok());
        assert!(makespan_repeats(1.5, 1.5 + f64::EPSILON).is_err());
    }
}
