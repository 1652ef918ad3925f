//! Std-only parallel map for the experiment sweeps.
//!
//! Each simulation in a sweep is independent and CPU-bound, so a plain
//! work-stealing index over [`std::thread::scope`] replaces the previous
//! rayon dependency: workers claim the next unclaimed item until the list
//! is drained, and results land in order-preserving slots.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Apply `f` to every item, fanning out across the machine's cores, and
/// return the results in input order. A panic in any worker propagates.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let n = items.len();
    if n <= 1 {
        return items.iter().map(f).collect();
    }
    let workers = std::thread::available_parallelism()
        .map_or(1, |p| p.get())
        .min(n);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                *slots[i].lock().unwrap() = Some(f(&items[i]));
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap()
                .expect("worker filled every claimed slot")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        assert_eq!(par_map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(par_map(&[7u32], |&x| x + 1), vec![8]);
    }
}
