//! Replicated rank work, evaluated once on the host.
//!
//! The machine we model splits one force phase across its processors;
//! several of our programs instead have every rank compute the *same*
//! thing on the *same* data and keep one stripe of it. On the virtual
//! clock that is free — each rank charges its share — but the host paid
//! for every copy. [`Comm::replicated`] removes the copies without
//! changing what any rank observes: ranks call it in the same SPMD order
//! (like a collective), the first rank to reach call *n* stores its
//! input in the world's table, and every rank whose input is **bitwise**
//! equal ([`BitEq`]) to the stored one shares a single evaluation of the
//! closure, asleep until it is ready. A rank whose input differs in any
//! bit evaluates privately, so a replica that diverged — a corrupted
//! stripe the transport failed to repair — keeps diverging exactly as it
//! would with no sharing at all.
//!
//! The closure must be a pure function of its input (it is handed no
//! `Comm`): everything that may differ between ranks goes *in* the
//! input, and what it captures must be the same on every rank. The call
//! charges no virtual time and records nothing — which rank evaluates is
//! a host-scheduling accident and must not reach a trace — so callers
//! charge their modeled share from the shared result, as they did from
//! their private one.
//!
//! The table belongs to one [`crate::World`] run: it is created with the
//! rank threads and dies with them, so nothing is shared between restart
//! attempts, worlds or tests.

use crate::comm::Comm;
use body::Body;
use std::any::{type_name, Any};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// Equality of representation: `a.bit_eq(&b)` iff every bit of `a` that
/// a computation can read equals the same bit of `b`. `==` is not this:
/// `0.0 == -0.0` yet `1.0 / 0.0 != 1.0 / -0.0`, so two replicas that
/// compare equal can still compute different physics (and `NaN != NaN`
/// would make identical replicas look different).
pub trait BitEq {
    fn bit_eq(&self, other: &Self) -> bool;
}

impl BitEq for f64 {
    fn bit_eq(&self, other: &Self) -> bool {
        self.to_bits() == other.to_bits()
    }
}

macro_rules! bit_eq_by_eq {
    ($($t:ty),*) => {$(
        impl BitEq for $t {
            fn bit_eq(&self, other: &Self) -> bool {
                self == other
            }
        }
    )*};
}
bit_eq_by_eq!(bool, u64, usize);

impl BitEq for Body {
    fn bit_eq(&self, o: &Self) -> bool {
        self.pos.bit_eq(&o.pos)
            && self.vel.bit_eq(&o.vel)
            && self.mass.bit_eq(&o.mass)
            && self.id == o.id
            && self.work.bit_eq(&o.work)
    }
}

impl<T: BitEq> BitEq for [T] {
    fn bit_eq(&self, other: &Self) -> bool {
        self.len() == other.len() && self.iter().zip(other).all(|(a, b)| a.bit_eq(b))
    }
}

impl<T: BitEq, const N: usize> BitEq for [T; N] {
    fn bit_eq(&self, other: &Self) -> bool {
        self[..].bit_eq(&other[..])
    }
}

impl<T: BitEq> BitEq for Vec<T> {
    fn bit_eq(&self, other: &Self) -> bool {
        self[..].bit_eq(&other[..])
    }
}

impl<T: BitEq> BitEq for Option<T> {
    fn bit_eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Some(a), Some(b)) => a.bit_eq(b),
            (None, None) => true,
            _ => false,
        }
    }
}

/// Two handles on one value are equal without a look inside: a replica
/// that already holds the shared result compares in O(1).
impl<T: BitEq> BitEq for Arc<T> {
    fn bit_eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(self, other) || (**self).bit_eq(other)
    }
}

/// One call's shared evaluation: the opening rank's input and the result
/// of the closure on it, computed at most once.
struct Shared<I, T> {
    input: I,
    result: OnceLock<Arc<T>>,
}

/// One call in flight. `shared` is an `Arc<Shared<I, T>>`.
struct Slot {
    site: &'static str,
    types: &'static str,
    /// Ranks that have looked this call up; the slot leaves the table
    /// with the last of them.
    taken: usize,
    shared: Arc<dyn Any + Send + Sync>,
}

/// The world's evaluate-once table: calls in flight by sequence number.
#[derive(Default)]
pub(crate) struct Table {
    calls: Mutex<HashMap<u64, Slot>>,
}

impl Comm {
    /// Evaluate `f(input)` once for every rank of this world that calls
    /// with a bitwise-equal `input`, and hand each of them the shared
    /// result; see the [module documentation](crate::replicated).
    ///
    /// Every rank must make its `n`-th call from the same `site` with the
    /// same types; anything else is a program bug and panics naming both
    /// sites. A rank whose input differs from the first arrival's
    /// evaluates `f` itself and shares nothing. If the evaluating rank
    /// panics inside `f`, the panic is its own: a waiting rank wakes and
    /// evaluates in its place.
    pub fn replicated<I, T>(
        &mut self,
        site: &'static str,
        input: &I,
        f: impl FnOnce(&I) -> T,
    ) -> Arc<T>
    where
        I: BitEq + Clone + Send + Sync + 'static,
        T: Send + Sync + 'static,
    {
        let seq = self.once_seq;
        self.once_seq += 1;
        let types = type_name::<fn(&I) -> T>();
        // The lock covers the lookup alone: comparing and evaluating under
        // it would queue the whole world behind one rank's compare.
        let (opened_at, opened_types, shared) = {
            let mut calls = self
                .once_table
                .calls
                .lock()
                .expect("no rank panics under the table lock");
            let slot = calls.entry(seq).or_insert_with(|| Slot {
                site,
                types,
                taken: 0,
                shared: Arc::new(Shared {
                    input: input.clone(),
                    result: OnceLock::<Arc<T>>::new(),
                }),
            });
            slot.taken += 1;
            let found = (slot.site, slot.types, slot.shared.clone());
            if slot.taken == self.size() {
                calls.remove(&seq);
            }
            found
        };
        let shared = match shared.downcast::<Shared<I, T>>() {
            Ok(shared) if opened_at == site => shared,
            _ => panic!(
                "replicated call {seq}: rank {} is at site `{site}` ({types}) but the call \
                 was opened at site `{opened_at}` ({opened_types}); every rank must call \
                 Comm::replicated in the same order",
                self.rank()
            ),
        };
        if shared.input.bit_eq(input) {
            // `get_or_init` puts every caller but the first to sleep, and
            // hands the initializer's seat to the next one if it panics.
            shared.result.get_or_init(|| Arc::new(f(input))).clone()
        } else {
            Arc::new(f(input))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::run;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn sixteen_ranks_evaluate_each_call_once() {
        let evaluations = AtomicUsize::new(0);
        let outs = run(16, |c| {
            let mut state = vec![1.0f64, 2.0, 3.0];
            let mut seen = Vec::new();
            for _ in 0..8 {
                let next = c.replicated("test.step", &state, |s| {
                    evaluations.fetch_add(1, Ordering::SeqCst);
                    s.iter().map(|x| x * 1.5 + 0.25).collect::<Vec<f64>>()
                });
                state.clone_from(&next);
                seen.push(state.iter().sum::<f64>().to_bits());
            }
            seen
        });
        assert_eq!(evaluations.load(Ordering::SeqCst), 8);
        assert!(outs.iter().all(|o| o == &outs[0]), "{outs:?}");
    }

    /// Rank 0 opens the call with the common input; `odd_rank` arrives
    /// after it with `odd_input`. Returns (evaluations, per-rank result).
    fn one_call_with_an_odd_rank(odd_rank: usize, odd_input: f64) -> (usize, Vec<f64>) {
        let evaluations = AtomicUsize::new(0);
        let opened = Barrier::new(4);
        let outs = run(4, |c| {
            let input = vec![if c.rank() == odd_rank { odd_input } else { 0.0 }];
            let call = |c: &mut Comm| {
                *c.replicated("test.odd", &input, |v| {
                    evaluations.fetch_add(1, Ordering::SeqCst);
                    1.0 / v[0]
                })
            };
            if c.rank() == 0 {
                let r = call(c);
                opened.wait();
                r
            } else {
                opened.wait();
                call(c)
            }
        });
        (evaluations.load(Ordering::SeqCst), outs)
    }

    #[test]
    fn a_rank_one_ulp_away_evaluates_privately() {
        let ulp = f64::from_bits(1);
        let (evaluations, outs) = one_call_with_an_odd_rank(2, ulp);
        assert_eq!(evaluations, 2);
        assert_eq!(outs[2], 1.0 / ulp);
        for r in [0, 1, 3] {
            assert_eq!(outs[r], f64::INFINITY, "rank {r}");
        }
    }

    #[test]
    fn negative_zero_is_not_shared_with_zero() {
        // `-0.0 == 0.0`, so an `==` comparison would hand rank 1 the
        // others' +inf.
        let (evaluations, outs) = one_call_with_an_odd_rank(1, -0.0);
        assert_eq!(evaluations, 2);
        assert_eq!(outs[1], f64::NEG_INFINITY);
        for r in [0, 2, 3] {
            assert_eq!(outs[r], f64::INFINITY, "rank {r}");
        }
    }

    #[test]
    fn nan_inputs_are_shared() {
        // `NaN != NaN`: `==` would make identical replicas look diverged.
        let evaluations = AtomicUsize::new(0);
        run(4, |c| {
            c.replicated("test.nan", &f64::NAN, |_| {
                evaluations.fetch_add(1, Ordering::SeqCst);
            });
        });
        assert_eq!(evaluations.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_evaluator_does_not_wedge_the_waiters() {
        let first = AtomicBool::new(true);
        let evaluations = AtomicUsize::new(0);
        let outs = run(8, |c| {
            let attempt = catch_unwind(AssertUnwindSafe(|| {
                *c.replicated("test.panic", &7u64, |x| {
                    evaluations.fetch_add(1, Ordering::SeqCst);
                    // Long enough that the others are asleep on the result.
                    std::thread::sleep(Duration::from_millis(20));
                    if first.swap(false, Ordering::SeqCst) {
                        panic!("first evaluator dies");
                    }
                    x * 6
                })
            }));
            // The next call still lines up on every rank.
            let after = *c.replicated("test.after", &1u64, |x| x + 1);
            (attempt.ok(), after)
        });
        assert_eq!(evaluations.load(Ordering::SeqCst), 2);
        assert_eq!(outs.iter().filter(|o| o.0.is_none()).count(), 1);
        for (value, after) in outs {
            assert!(value.is_none_or(|v| v == 42));
            assert_eq!(after, 2);
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    fn a_waiting_rank_sleeps_while_the_evaluator_works() {
        use crate::comm::tests::thread_cpu_s;
        let opened = Barrier::new(2);
        let (wall_s, cpu_s) = run(2, |c| {
            let call = |c: &mut Comm| {
                *c.replicated("test.sleep", &1u64, |x| {
                    // Rank 1 may only arrive once rank 0 is in here.
                    opened.wait();
                    std::thread::sleep(Duration::from_millis(150));
                    x + 1
                })
            };
            if c.rank() == 0 {
                assert_eq!(call(c), 2);
                return (0.0, 0.0);
            }
            opened.wait();
            let (wall0, cpu0) = (std::time::Instant::now(), thread_cpu_s());
            assert_eq!(call(c), 2);
            (wall0.elapsed().as_secs_f64(), thread_cpu_s() - cpu0)
        })[1];
        assert!(wall_s >= 0.140, "waited only {wall_s} s");
        assert!(cpu_s < 5.0e-3, "waiting rank burned {cpu_s} s of CPU");
    }

    #[test]
    fn a_different_site_at_the_same_call_panics_naming_both() {
        let opened = Barrier::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(2, |c| {
                if c.rank() == 0 {
                    c.replicated("test.left", &1u64, |x| *x);
                    opened.wait();
                } else {
                    opened.wait();
                    c.replicated("test.right", &1u64, |x| *x);
                }
            })
        }))
        .expect_err("mismatched sites must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(
            msg.contains("test.left") && msg.contains("test.right"),
            "{msg}"
        );
    }

    #[test]
    fn a_different_type_at_the_same_call_panics_naming_both() {
        let opened = Barrier::new(2);
        let err = catch_unwind(AssertUnwindSafe(|| {
            run(2, |c| {
                if c.rank() == 0 {
                    c.replicated("test.site", &1u64, |x| *x);
                    opened.wait();
                } else {
                    opened.wait();
                    c.replicated("test.site", &1.0f64, |x| *x);
                }
            })
        }))
        .expect_err("mismatched types must panic");
        let msg = err.downcast_ref::<String>().expect("formatted panic");
        assert!(msg.contains("u64") && msg.contains("f64"), "{msg}");
    }

    #[test]
    fn finished_calls_leave_the_table() {
        let left = run(4, |c| {
            for _ in 0..5 {
                c.replicated("test.drop", &3u64, |x| x + 1);
            }
            c.barrier();
            c.once_table.calls.lock().unwrap().len()
        });
        assert_eq!(left, vec![0; 4]);
    }
}
