//! Property-based tests: every `Pdd` operator must agree with the obvious
//! sequential `Vec` / `HashSet` reference, regardless of partitioning and of
//! the width of the rayon pool it runs in.

use csb_engine::{JobMetrics, Pdd};
use proptest::prelude::*;
use std::collections::HashSet;

/// Pool widths every property is checked at: no parallelism, and more
/// threads than most generated datasets have partitions.
const WIDTHS: [usize; 2] = [1, 4];

fn pdd(data: Vec<u64>, parts: usize) -> Pdd<u64> {
    Pdd::from_vec(data, parts, JobMetrics::new())
}

/// Runs `f` inside a rayon pool of `width` threads.
fn at_width<R: Send>(width: usize, f: impl FnOnce() -> R + Send) -> R {
    rayon::ThreadPoolBuilder::new().num_threads(width).build().expect("pool").install(f)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// flat_map matches Vec semantics up to ordering, whether it expands a
    /// record or drops it.
    #[test]
    fn flat_map_matches_vec(
        data in prop::collection::vec(0u64..1000, 0..300),
        parts in 1usize..9,
    ) {
        let f = |x: u64| (x >= 300).then_some([x * 3, x * 3 + 1]).into_iter().flatten();
        let expected = sorted(data.iter().copied().flat_map(f).collect());
        for width in WIDTHS {
            let got = at_width(width, || pdd(data.clone(), parts).flat_map(f).collect());
            prop_assert_eq!(sorted(got), expected.clone(), "width {}", width);
        }
    }

    /// flat_map_indexed hands every record its own (partition, index)
    /// coordinate, and the coordinates are those of round-robin dealing.
    #[test]
    fn flat_map_indexed_coordinates_are_the_round_robin_deal(
        data in prop::collection::vec(0u64..1000, 0..300),
        parts in 1usize..9,
    ) {
        let expected: Vec<(usize, usize, u64)> =
            data.iter().enumerate().map(|(n, &x)| (n % parts, n / parts, x)).collect();
        for width in WIDTHS {
            let mut got = at_width(width, || {
                Pdd::from_vec(data.clone(), parts, JobMetrics::new())
                    .flat_map_indexed(|p, i, x| [(p, i, x)])
                    .collect()
            });
            got.sort_unstable_by_key(|&(p, i, _)| i * parts + p);
            prop_assert_eq!(&got, &expected, "width {}", width);
        }
    }

    /// union keeps the multiset of both sides.
    #[test]
    fn union_matches_concatenation(
        left in prop::collection::vec(0u64..1000, 0..200),
        right in prop::collection::vec(0u64..1000, 0..200),
        p1 in 1usize..9,
        p2 in 1usize..9,
    ) {
        let expected = sorted(left.iter().chain(&right).copied().collect());
        let got = pdd(left, p1).union(pdd(right, p2)).collect();
        prop_assert_eq!(sorted(got), expected);
    }

    /// distinct matches HashSet semantics, with nothing left duplicated.
    #[test]
    fn distinct_matches_set(
        data in prop::collection::vec(0u64..50, 0..400),
        parts in 1usize..9,
    ) {
        let expected: HashSet<u64> = data.iter().copied().collect();
        for width in WIDTHS {
            let got = at_width(width, || pdd(data.clone(), parts).distinct().collect());
            prop_assert_eq!(got.len(), expected.len(), "width {}", width);
            prop_assert_eq!(got.into_iter().collect::<HashSet<u64>>(), expected.clone());
        }
    }

    /// sample_with_replacement is a function of (seed, partitioning) alone:
    /// the same records in the same order at every pool width, drawn only
    /// from the input.
    #[test]
    fn sample_with_replacement_is_the_same_at_every_width(
        data in prop::collection::vec(0u64..1000, 0..300),
        parts in 1usize..9,
        seed in any::<u64>(),
        fraction in 0.0f64..3.0,
    ) {
        let sample = |width| {
            at_width(width, || {
                pdd(data.clone(), parts).sample_with_replacement(fraction, seed).collect()
            })
        };
        let narrow = sample(1);
        prop_assert_eq!(&narrow, &sample(1), "same seed, same sample");
        prop_assert_eq!(&narrow, &sample(4), "pool width must not reach the sample");
        let universe: HashSet<u64> = data.iter().copied().collect();
        prop_assert!(narrow.iter().all(|x| universe.contains(x)));
    }

    /// Partition count never changes the multiset of records.
    #[test]
    fn repartitioning_is_invisible(
        data in prop::collection::vec(0u64..1000, 0..200),
        p1 in 1usize..9,
        p2 in 1usize..9,
    ) {
        let a = pdd(data.clone(), p1).flat_map(|x| [x ^ 7]).collect();
        let b = pdd(data, p2).flat_map(|x| [x ^ 7]).collect();
        prop_assert_eq!(sorted(a), sorted(b));
    }
}
