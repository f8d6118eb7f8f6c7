// Fixture: hand-rolled fan-outs fire fan-out-via-par; going through
// nevermind_obs::par, and mentions in comments or strings, do not.
fn hand_rolled(items: &[u32]) -> usize {
    let n = std::thread::available_parallelism().map_or(1, |p| p.get());
    std::thread::scope(|s| {
        s.spawn(|| n);
    });
    use std::thread;
    thread::scope(|s| {
        s.spawn(|| items.len());
    });
    n
}

fn via_helper(items: &[u32]) -> Vec<u32> {
    // std::thread::scope and available_parallelism live in par only.
    let _note = "std::thread::scope(available_parallelism)";
    nevermind_obs::par::map(nevermind_obs::par::ranges(items.len(), 0), |r| items[r].iter().sum())
}

fn unrelated(scope: u32) -> u32 {
    // A bare `scope` identifier is not the std path.
    scope
}
