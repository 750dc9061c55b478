//! The greedy scheduler as first written — `HashMap` residual capacities
//! and a fresh `HashMap`-backed BFS per attempt — kept as test code only.
//! It is the differential oracle for [`GreedyScheduler::schedule`]: the
//! production scheduler must route the exact same batches. It carries its
//! own copy of the original neighbour expansion, so it does not share the
//! mesh's router with the code under test.
//!
//! Shared by `qla-sched`'s randomized oracle test and `qla-bench`'s
//! factor-128 trace oracle test (included there by path).

use qla_sched::{CommRequest, Edge, GreedyScheduler, Mesh, Node, RoutedBatch, ScheduleResult};
use std::collections::{HashMap, VecDeque};

/// Schedule `requests` exactly as the original greedy scheduler did,
/// under `scheduler`'s mesh and window budget.
pub fn oracle_schedule(scheduler: &GreedyScheduler, requests: &[CommRequest]) -> ScheduleResult {
    let mesh = scheduler.mesh();
    let mut remaining: Vec<usize> = requests.iter().map(|r| r.pairs).collect();
    let mut batches = Vec::new();
    let mut windows_used = 0usize;
    let mut capacity_consumed = 0usize;

    for window in 0..scheduler.max_windows {
        if remaining.iter().all(|&p| p == 0) {
            break;
        }
        windows_used = window + 1;
        let mut capacity: HashMap<Edge, usize> = mesh
            .edges()
            .into_iter()
            .map(|e| (e, mesh.edge_capacity_per_window()))
            .collect();

        loop {
            let mut progressed = false;
            let mut order: Vec<usize> = (0..requests.len()).collect();
            order.sort_by_key(|&i| std::cmp::Reverse(remaining[i]));
            for i in order {
                if remaining[i] == 0 {
                    continue;
                }
                let req = requests[i];
                if let Some(path) = shortest_available_path(mesh, req.from, req.to, &capacity) {
                    let bottleneck = path
                        .windows(2)
                        .map(|w| capacity[&Edge::new(w[0], w[1])])
                        .min()
                        .unwrap_or(0);
                    if bottleneck == 0 {
                        continue;
                    }
                    let send = bottleneck.min(remaining[i]);
                    for w in path.windows(2) {
                        *capacity.get_mut(&Edge::new(w[0], w[1])).expect("edge") -= send;
                    }
                    capacity_consumed += send * (path.len() - 1);
                    remaining[i] -= send;
                    batches.push(RoutedBatch {
                        request: i,
                        window,
                        path: path.clone(),
                        pairs: send,
                    });
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    let unsatisfied: Vec<usize> = remaining
        .iter()
        .enumerate()
        .filter(|(_, &p)| p > 0)
        .map(|(i, _)| i)
        .collect();
    let total_capacity = mesh.total_capacity_per_window() * windows_used.max(1);
    ScheduleResult {
        batches,
        windows_used,
        utilization: capacity_consumed as f64 / total_capacity as f64,
        unsatisfied,
    }
}

fn shortest_available_path(
    mesh: &Mesh,
    from: Node,
    to: Node,
    capacity: &HashMap<Edge, usize>,
) -> Option<Vec<Node>> {
    if from == to {
        return neighbours(mesh, from)
            .into_iter()
            .find(|&n| capacity.get(&Edge::new(from, n)).copied().unwrap_or(0) > 0)
            .map(|n| vec![from, n]);
    }
    let mut prev: HashMap<Node, Node> = HashMap::new();
    let mut queue = VecDeque::new();
    queue.push_back(from);
    prev.insert(from, from);
    while let Some(n) = queue.pop_front() {
        if n == to {
            let mut path = vec![to];
            let mut cur = to;
            while cur != from {
                cur = prev[&cur];
                path.push(cur);
            }
            path.reverse();
            return Some(path);
        }
        for next in neighbours(mesh, n) {
            if prev.contains_key(&next) {
                continue;
            }
            if capacity.get(&Edge::new(n, next)).copied().unwrap_or(0) == 0 {
                continue;
            }
            prev.insert(next, n);
            queue.push_back(next);
        }
    }
    None
}

/// Orthogonal neighbours in left/right/up/down order, as first written.
fn neighbours(mesh: &Mesh, n: Node) -> Vec<Node> {
    let (c, r) = mesh.coords(n);
    let mut out = Vec::with_capacity(4);
    if c > 0 {
        out.push(n - 1);
    }
    if c + 1 < mesh.columns() {
        out.push(n + 1);
    }
    if r > 0 {
        out.push(n - mesh.columns());
    }
    if r + 1 < mesh.rows() {
        out.push(n + mesh.columns());
    }
    out
}

/// Assert the production scheduler reproduces the oracle on `requests`.
/// On a mesh without capacity the oracle's 0/0 utilisation is NaN; the
/// production scheduler reports 0.0 there, as documented.
pub fn assert_matches_oracle(scheduler: &GreedyScheduler, requests: &[CommRequest], context: &str) {
    let expected = oracle_schedule(scheduler, requests);
    let actual = scheduler.schedule(requests);
    assert_eq!(actual.batches, expected.batches, "{context}: batches");
    assert_eq!(
        actual.windows_used, expected.windows_used,
        "{context}: windows"
    );
    assert_eq!(
        actual.unsatisfied, expected.unsatisfied,
        "{context}: unsatisfied"
    );
    let utilization = if scheduler.mesh().total_capacity_per_window() == 0 {
        assert!(
            expected.utilization.is_nan(),
            "{context}: oracle utilisation"
        );
        0.0
    } else {
        expected.utilization
    };
    assert_eq!(
        actual.utilization.to_bits(),
        utilization.to_bits(),
        "{context}: utilisation"
    );
}
