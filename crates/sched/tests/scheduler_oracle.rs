//! Differential test: the dense-indexed greedy scheduler against the
//! original `HashMap`-based one (kept in `oracle/`) on seeded random
//! meshes and request sets, one- and two-node meshes and one-row and
//! one-column meshes included.

mod oracle;

use oracle::assert_matches_oracle;
use qla_sched::{CommRequest, GreedyScheduler, Mesh};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A random request set over `nodes` sites: about one request in five is
/// co-located, one in fifty names a site outside the mesh (unroutable),
/// and some ask for no pairs at all.
fn random_requests(rng: &mut ChaCha8Rng, nodes: usize) -> Vec<CommRequest> {
    let count = rng.random_range(0..=14);
    (0..count)
        .map(|_| {
            let from = rng.random_range(0..nodes);
            let to = match rng.random_range(0..50) {
                0 => nodes + rng.random_range(0..3usize),
                1..=10 => from,
                _ => rng.random_range(0..nodes),
            };
            CommRequest {
                from,
                to,
                pairs: rng.random_range(0..=24),
            }
        })
        .collect()
}

#[test]
fn dense_scheduler_matches_the_hashmap_oracle_on_random_meshes() {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5c4e_d01e);
    for case in 0..3000 {
        let columns = rng.random_range(1..=9);
        let rows = rng.random_range(1..=9);
        let bandwidth = rng.random_range(0..=3);
        let mesh =
            Mesh::new(columns, rows, bandwidth).with_pairs_per_window(rng.random_range(1..=4));
        let mut scheduler = GreedyScheduler::new(mesh);
        scheduler.max_windows = rng.random_range(1..=6);
        let requests = random_requests(&mut rng, columns * rows);
        assert_matches_oracle(
            &scheduler,
            &requests,
            &format!("case {case}: {columns}x{rows} bandwidth {bandwidth}"),
        );
    }
}

#[test]
fn dense_scheduler_matches_the_oracle_on_degenerate_meshes() {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // Single rows, single columns, single nodes, and no bandwidth.
    for (columns, rows) in [(1, 1), (1, 2), (2, 1), (1, 9), (9, 1), (2, 2)] {
        for bandwidth in 0..=2 {
            for _ in 0..40 {
                let mut scheduler = GreedyScheduler::new(Mesh::new(columns, rows, bandwidth));
                scheduler.max_windows = rng.random_range(1..=4);
                let requests = random_requests(&mut rng, columns * rows);
                assert_matches_oracle(
                    &scheduler,
                    &requests,
                    &format!("{columns}x{rows} bandwidth {bandwidth}"),
                );
            }
        }
    }
}
