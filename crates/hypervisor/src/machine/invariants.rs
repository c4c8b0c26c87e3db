//! Runtime validation of the machine's scheduling invariants.
//!
//! The checker is pure: it draws no randomness and mutates nothing, so
//! running it (under `cfg.paranoid`, after every injected fault, or from
//! tests) can never change simulation output.

use super::Machine;
use crate::error::SimError;
use crate::vcpu::VState;
use guest::activity::{Activity, KWork};
use std::collections::BTreeMap;

impl Machine {
    /// Validates the cross-cutting invariants of the scheduler state:
    ///
    /// 1. every `pcpu.current` vCPU is `Running` on that pCPU, and every
    ///    queued vCPU is `Runnable` on that pCPU;
    /// 2. no vCPU occupies or queues on more than one pCPU;
    /// 3. every `Running`/`Runnable` vCPU is actually held by a pCPU, and
    ///    no pCPU holds a `Blocked` vCPU;
    /// 4. credits stay within `[-credit_cap, credit_cap]`;
    /// 5. no pending event fires in the past (event-queue monotonicity);
    /// 6. no reschedule-IPI acknowledgement token is lost: an unacked
    ///    `ReschedWait` implies the target vCPU still holds the matching
    ///    `ReschedIpi` (pending or mid-handler).
    ///
    /// Returns the first violation found, in a deterministic scan order.
    pub fn check_invariants(&self) -> Result<(), SimError> {
        let err = |what: String| SimError::Invariant { at: self.now, what };

        // pCPU side (invariants 1 and 2).
        let mut seen = BTreeMap::new();
        for p in &self.pcpus {
            if let Some(v) = p.current {
                let vc = self.vcpu(v);
                if !matches!(vc.state, VState::Running { pcpu, .. } if pcpu == p.id) {
                    return Err(err(format!(
                        "{v} is current on {} but its state is {:?}",
                        p.id, vc.state
                    )));
                }
                if let Some(prev) = seen.insert(v, p.id) {
                    return Err(err(format!("{v} held by both {prev} and {}", p.id)));
                }
            }
            for e in p.runq_iter() {
                let vc = self.vcpu(e.vcpu);
                if !matches!(vc.state, VState::Runnable { pcpu } if pcpu == p.id) {
                    return Err(err(format!(
                        "{} queued on {} but its state is {:?}",
                        e.vcpu, p.id, vc.state
                    )));
                }
                if let Some(prev) = seen.insert(e.vcpu, p.id) {
                    return Err(err(format!("{} held by both {prev} and {}", e.vcpu, p.id)));
                }
            }
        }

        // vCPU side (invariants 3 and 4).
        let cap = self.cfg.credit_cap;
        for vm in &self.vcpus {
            for vc in vm {
                match vc.state {
                    VState::Running { .. } | VState::Runnable { .. } => {
                        if !seen.contains_key(&vc.id) {
                            return Err(err(format!(
                                "{} claims {:?} but no pCPU holds it",
                                vc.id, vc.state
                            )));
                        }
                    }
                    VState::Blocked => {
                        if let Some(p) = seen.get(&vc.id) {
                            return Err(err(format!("{} is blocked but {p} holds it", vc.id)));
                        }
                    }
                }
                if vc.credits < -cap || vc.credits > cap {
                    return Err(err(format!(
                        "{} credits {} outside [-{cap}, {cap}]",
                        vc.id, vc.credits
                    )));
                }
            }
        }

        // Event-queue time monotonicity (invariant 5). `earliest` is the
        // non-mutating peek: an exact scan of the pending events that
        // cannot perturb the queue it is checking.
        if let Some(t) = self.queue.earliest() {
            if t < self.now {
                return Err(err(format!(
                    "pending event at {t} is before now ({})",
                    self.now
                )));
            }
        }

        // Resched-token conservation (invariant 6). Saved task activities
        // are not scanned: only `User` activities are ever guest-preempted,
        // so a `ReschedWait` cannot reach `task.saved`.
        for (vmi, vm) in self.vcpus.iter().enumerate() {
            for vc in vm {
                for a in core::iter::once(&vc.ctx.activity).chain(vc.ctx.interrupted.iter()) {
                    let Activity::ReschedWait { target, token, .. } = *a else {
                        continue;
                    };
                    if vc.ctx.acked_resched >= token {
                        continue;
                    }
                    let matches_ipi = |w: &KWork| {
                        matches!(w, KWork::ReschedIpi { waker, token: tk }
                                 if *waker == vc.id.idx && *tk == token)
                    };
                    let tgt = &self.vcpus[vmi][target as usize];
                    let in_pending = tgt.ctx.pending.iter().any(matches_ipi);
                    let in_handler = core::iter::once(&tgt.ctx.activity)
                        .chain(tgt.ctx.interrupted.iter())
                        .any(|a| matches!(a, Activity::KWorkRun { work, .. } if matches_ipi(work)));
                    if !in_pending && !in_handler {
                        return Err(err(format!(
                            "resched token {token} of {} lost: target vCPU {target} \
                             holds no matching IPI and never acked it",
                            vc.id
                        )));
                    }
                }
            }
        }
        Ok(())
    }
}
