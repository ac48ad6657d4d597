//! The paper's event→source instance transformation (§4.3).
//!
//! The conservative truncation rule covers *events*; the energy-efficient
//! rule covers *sources*: "each event in an aggregate is replaced by its
//! source. To preserve the initial cost ratio, the new associated energy cost
//! w*_i of the transformed aggregate S*_i is w_i · |S*_i| / |S_i|."

use crate::instance::CoverInstance;

/// The transformed weight `w · |S*| / |S|`.
///
/// # Panics
///
/// Panics if `original_len` is zero while `transformed_len` is not (an
/// aggregate cannot gain sources by losing events), or if `weight` is not
/// finite and non-negative.
///
/// # Examples
///
/// The paper's Figure 4(b): `w1* = 5·2/3`, `w2* = 6·1/2`, `w3* = 7·2/2`.
///
/// ```
/// use wsn_setcover::transformed_weight;
///
/// assert!((transformed_weight(5.0, 3, 2) - 10.0 / 3.0).abs() < 1e-12);
/// assert_eq!(transformed_weight(6.0, 2, 1), 3.0);
/// assert_eq!(transformed_weight(7.0, 2, 2), 7.0);
/// ```
pub fn transformed_weight(weight: f64, original_len: usize, transformed_len: usize) -> f64 {
    assert!(
        weight.is_finite() && weight >= 0.0,
        "weight must be finite and non-negative, got {weight}"
    );
    if original_len == 0 {
        assert_eq!(transformed_len, 0, "cannot transform 0 events into sources");
        return weight;
    }
    weight * transformed_len as f64 / original_len as f64
}

/// Builds the source-level instance from event-level subsets.
///
/// Each input subset is `(event elements tagged with their source, weight)`;
/// concretely a slice of `(source, event)` pairs. The output instance has one
/// subset per input with items = the distinct sources and weight transformed
/// per [`transformed_weight`]. The returned subset indices match the input
/// order, so a cover of the output indexes the original aggregates directly.
///
/// # Examples
///
/// The full Figure 4 pipeline:
///
/// ```
/// use wsn_setcover::{greedy_cover, to_source_instance};
///
/// const A: u32 = 0;
/// const B: u32 = 1;
/// // S1 = {a1, a2, b1}, S2 = {b1, b2}, S3 = {a2, b2} with weights 5, 6, 7.
/// let inst = to_source_instance(&[
///     (vec![(A, 1), (A, 2), (B, 1)], 5.0),
///     (vec![(B, 1), (B, 2)], 6.0),
///     (vec![(A, 2), (B, 2)], 7.0),
/// ]);
/// let cover = greedy_cover(&inst);
/// // Only S1* = {A, B} is selected: H and K get negatively reinforced.
/// assert_eq!(cover.selected, vec![0]);
/// ```
pub fn to_source_instance(event_subsets: &[(Vec<(u32, u64)>, f64)]) -> CoverInstance {
    let mut inst = CoverInstance::new();
    let mut events = Vec::new();
    for (subset, weight) in event_subsets {
        events.clear();
        events.extend_from_slice(subset);
        add_source_subset(&mut inst, &mut events, *weight);
    }
    inst
}

/// Adds one event-level subset to a source-level instance: the distinct
/// sources of `events` (`(source, event)` pairs), weighted per
/// [`transformed_weight`]. Returns the new subset's index. `events` is
/// left sorted and deduplicated by source; pass a reused buffer and an
/// instance reset with [`CoverInstance::clear`] to build instances without
/// allocating. [`to_source_instance`] is this, once per subset.
pub fn add_source_subset(
    inst: &mut CoverInstance,
    events: &mut Vec<(u32, u64)>,
    weight: f64,
) -> usize {
    events.sort_unstable();
    events.dedup();
    let distinct_events = events.len();
    events.dedup_by_key(|&mut (source, _)| source);
    let w = transformed_weight(weight, distinct_events, events.len());
    inst.add_subset_from(events.iter().map(|&(source, _)| source), w)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greedy::greedy_cover;

    #[test]
    fn figure4b_weights() {
        assert!((transformed_weight(5.0, 3, 2) - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(transformed_weight(6.0, 2, 1), 3.0);
        assert_eq!(transformed_weight(7.0, 2, 2), 7.0);
    }

    #[test]
    fn transformation_preserves_cost_ratio() {
        // r* = w*/|S*| must equal r = w/|S| by construction.
        for (w, n, k) in [
            (5.0, 3usize, 2usize),
            (6.0, 2, 1),
            (7.0, 2, 2),
            (1.0, 10, 1),
        ] {
            let w_star = transformed_weight(w, n, k);
            assert!((w_star / k as f64 - w / n as f64).abs() < 1e-12);
        }
    }

    #[test]
    fn figure4b_instance_shape() {
        let inst = to_source_instance(&[
            (vec![(0, 1), (0, 2), (1, 1)], 5.0),
            (vec![(1, 1), (1, 2)], 6.0),
            (vec![(0, 2), (1, 2)], 7.0),
        ]);
        assert_eq!(inst.subsets()[0].items(), &[0, 1]);
        assert_eq!(inst.subsets()[1].items(), &[1]);
        assert_eq!(inst.subsets()[2].items(), &[0, 1]);
        assert!((inst.subsets()[0].weight() - 10.0 / 3.0).abs() < 1e-12);
        assert_eq!(inst.subsets()[1].weight(), 3.0);
        assert_eq!(inst.subsets()[2].weight(), 7.0);
    }

    #[test]
    fn figure4b_truncation_decision() {
        let inst = to_source_instance(&[
            (vec![(0, 1), (0, 2), (1, 1)], 5.0),
            (vec![(1, 1), (1, 2)], 6.0),
            (vec![(0, 2), (1, 2)], 7.0),
        ]);
        let cover = greedy_cover(&inst);
        assert_eq!(cover.selected, vec![0], "only G's aggregate is efficient");
    }

    #[test]
    fn duplicate_events_collapse_before_weighting() {
        // {(A,1), (A,1)} is one event from one source: w* = w·1/1.
        let inst = to_source_instance(&[(vec![(0, 1), (0, 1)], 4.0)]);
        assert_eq!(inst.subsets()[0].items(), &[0]);
        assert_eq!(inst.subsets()[0].weight(), 4.0);
    }

    #[test]
    fn empty_aggregate_transforms_to_empty() {
        let inst = to_source_instance(&[(vec![], 2.0)]);
        assert!(inst.subsets()[0].is_empty());
        assert_eq!(inst.subsets()[0].weight(), 2.0);
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_weight_panics() {
        let _ = transformed_weight(f64::NAN, 1, 1);
    }
}
