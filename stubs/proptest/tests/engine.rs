//! Self-tests of the property-test engine every workspace property rests
//! on: range strategies cover their ends, `any::<u64>()` covers the whole
//! range, and a test's name fixes its case sequence. No threads.

use std::cell::RefCell;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

/// `n` draws of `strategy` from the stream seeded by `name`.
fn draws<S: Strategy>(strategy: S, name: &str, n: usize) -> Vec<S::Value> {
    let mut rng = TestRng::deterministic(name);
    (0..n).map(|_| strategy.generate(&mut rng)).collect()
}

#[test]
fn inclusive_ranges_reach_both_ends() {
    let small = draws(0u8..=3, "small", 256);
    assert!(small.contains(&0) && small.contains(&3));
    assert!(small.iter().all(|&v| v <= 3));
    let full = draws(u8::MIN..=u8::MAX, "full", 4096);
    assert!(full.contains(&u8::MIN) && full.contains(&u8::MAX));
    let signed = draws(-5i32..=5, "signed", 256);
    assert!(signed.contains(&-5) && signed.contains(&5));
    assert!(signed.iter().all(|v| (-5..=5).contains(v)));
    let top = draws(u64::MAX - 3..=u64::MAX, "top", 256);
    assert!(top.contains(&(u64::MAX - 3)) && top.contains(&u64::MAX));
    assert_eq!(draws(7usize..=7, "one", 16), vec![7; 16]);
    // A half-open range stops one short of its end.
    let half = draws(0u8..4, "half", 256);
    assert!(half.contains(&0) && half.contains(&3) && !half.contains(&4));
}

#[test]
fn any_u64_reaches_both_extremes() {
    let values = draws(any::<u64>(), "any", 4096);
    let near = 1u64 << 56; // 1/256 of the range at each end
    assert!(values.iter().any(|&v| v < near), "never near 0");
    assert!(
        values.iter().any(|&v| v > u64::MAX - near),
        "never near u64::MAX"
    );
}

thread_local! {
    static SEEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    fn recorded_cases(x in any::<u64>()) {
        SEEN.with(|seen| seen.borrow_mut().push(x));
    }
}

/// The cases one run of `recorded_cases` saw.
fn run_recorded() -> Vec<u64> {
    SEEN.with(|seen| seen.borrow_mut().clear());
    recorded_cases();
    SEEN.with(|seen| seen.borrow().clone())
}

/// The first three cases of `recorded_cases`, pinned: a change to the
/// name hash, the generator or the way the runner seeds shows here.
const PINNED: [u64; 3] = [
    5_969_555_289_401_500_107,
    5_010_635_147_503_239_792,
    15_083_473_619_748_738_423,
];

#[test]
fn a_test_name_fixes_its_case_sequence() {
    let first = run_recorded();
    assert_eq!(first.len(), 8);
    assert_eq!(run_recorded(), first);
    // The runner seeds from the test's path, so the cases are the named
    // stream's draws.
    let name = concat!(module_path!(), "::recorded_cases");
    assert_eq!(first, draws(any::<u64>(), name, 8));
    assert_eq!(first[..3], PINNED);
    assert_ne!(draws(any::<u64>(), "another test", 8), first);
}
