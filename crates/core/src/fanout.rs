//! The work-stealing scaffold shared by both parallelism levels.
//!
//! [`Engine::analyze_all`](crate::Engine::analyze_all) (across
//! requests) and `run_target` (across the locations of one request) run
//! the same scheme: worker threads claim job indices from an atomic
//! cursor and park each result in its index slot, so assembly is in job
//! order — deterministic no matter which worker ran what.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runs `count` independent jobs over `workers` workers and returns the
/// results in job order. The calling thread is one of the workers
/// (`workers - 1` threads are spawned), so a `workers`-way fan-out
/// occupies exactly `workers` threads — nested fan-outs stay within the
/// budget their worker counts sum to. With `workers <= 1` (or a single
/// job) the jobs run inline — no spawn, identical results.
pub(crate) fn fan_out<T, F>(workers: usize, count: usize, job: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    if workers <= 1 || count <= 1 {
        return (0..count).map(job).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<T>>> = (0..count).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let index = next.fetch_add(1, Ordering::Relaxed);
        if index >= count {
            break;
        }
        let result = job(index);
        *slots[index].lock().expect("result slot") = Some(result);
    };
    std::thread::scope(|scope| {
        let handles: Vec<_> = (1..workers.min(count)).map(|_| scope.spawn(work)).collect();
        work();
        // The scope alone returns once the workers' closures finish, which
        // can be before their threads exit. glibc returns a thread's malloc
        // arena to its free list only at exit, so a later fan-out could
        // spawn into a fresh arena and keep another pass's freed memory
        // resident. Joining waits for the exit.
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("every job index was claimed and ran")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_job_order() {
        for workers in [1, 2, 7] {
            let out = fan_out(workers, 20, |i| i * i);
            assert_eq!(out, (0..20).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_jobs_is_fine() {
        assert!(fan_out::<usize, _>(4, 0, |i| i).is_empty());
    }

    #[test]
    fn workers_have_exited_when_fan_out_returns() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Barrier;
        use std::time::Duration;

        static EXITED: AtomicBool = AtomicBool::new(false);
        /// Marks its thread's exit, late: its destructor runs among the
        /// thread's last acts.
        struct SlowExit;
        impl Drop for SlowExit {
            fn drop(&mut self) {
                std::thread::sleep(Duration::from_millis(50));
                EXITED.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static GUARD: SlowExit = const { SlowExit };
        }

        let caller = std::thread::current().id();
        // Neither thread can finish a job before the other has started
        // one, so the spawned worker runs exactly one.
        let barrier = Barrier::new(2);
        fan_out(2, 2, |_| {
            barrier.wait();
            if std::thread::current().id() != caller {
                GUARD.with(|_| {});
            }
        });
        assert!(EXITED.load(Ordering::SeqCst));
    }
}
