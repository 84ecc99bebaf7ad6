//! The hybrid classical-first rung of the serving pool's escalation
//! ladder.
//!
//! Models the routing structure of the HotNets '20 follow-on work (and
//! `quamax_core::detect::HybridDetector`'s decode-level counterpart)
//! at the queueing level — a routing policy over one pool, not a
//! separate server type: attached with
//! [`ResilientServer::with_hybrid`](crate::serve::ResilientServer::with_hybrid),
//! it serves every job that escalates off the QPU workers; on a pool
//! with no QPU worker
//! ([`ResilientServer::without_qpu`](crate::serve::ResilientServer::without_qpu))
//! that is every job. Every subcarrier problem of a frame is first
//! decoded on the classical CPU pool; the fraction whose linear
//! residual fails the confidence policy is re-decoded on the QPU. The
//! QPU therefore sees only the hard tail of the workload — which is
//! what lets an only-partly-integrated device contribute at all: its
//! per-job overhead is paid on `⌈fallback × problems⌉` problems
//! instead of all of them, and per-AP compiled sessions
//! ([`QpuServer::with_coherence`] / session cache) amortize the
//! programming across a coherence interval of fallback batches.

use crate::cpu::CpuPool;
use crate::qpu::QpuServer;

/// A classical-first server: a [`CpuPool`] filters, a [`QpuServer`]
/// re-decodes the flagged residue.
#[derive(Clone, Debug)]
pub struct HybridServer {
    cpu: CpuPool,
    qpu: QpuServer,
    /// Expected fraction of subcarrier problems the confidence policy
    /// flags for quantum fallback (workload-dependent; the decode-level
    /// router's routing rate under the same policy).
    fallback_fraction: f64,
}

impl HybridServer {
    /// A hybrid server flagging `fallback_fraction` of each frame's
    /// problems for the QPU.
    ///
    /// # Panics
    /// Panics unless `0 ≤ fallback_fraction ≤ 1`.
    pub fn new(cpu: CpuPool, qpu: QpuServer, fallback_fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fallback_fraction),
            "fallback fraction must be in [0, 1]"
        );
        HybridServer {
            cpu,
            qpu,
            fallback_fraction,
        }
    }

    /// Problems of a `problems`-subcarrier frame that go to the QPU.
    pub fn fallback_problems(&self, problems: usize) -> usize {
        (self.fallback_fraction * problems as f64).ceil() as usize
    }

    /// Enqueues one frame from source `key` arriving at `now_us`;
    /// returns the completion time of the *frame* (its last decoded
    /// problem): the classical pass over all problems, then — when the
    /// policy flags any — the quantum pass over the flagged subset,
    /// which can only start once the classical pass has priced every
    /// answer.
    pub fn enqueue(
        &mut self,
        now_us: f64,
        key: usize,
        problems: usize,
        users: usize,
        logical_vars: usize,
    ) -> f64 {
        let classical_done = self.cpu.enqueue(now_us, problems, users);
        let flagged = self.fallback_problems(problems);
        if flagged == 0 {
            return classical_done;
        }
        self.qpu
            .enqueue(classical_done, key, None, flagged, logical_vars)
    }

    /// Resets both servers (new simulation).
    pub fn reset(&mut self) {
        self.cpu.reset();
        self.qpu.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuPolicy;
    use crate::qpu::QpuOverheads;

    fn pool() -> CpuPool {
        CpuPool::new(
            8,
            CpuPolicy::ZeroForcing {
                vectors_per_channel: 1,
            },
        )
    }

    #[test]
    fn zero_fallback_is_pure_classical() {
        let mut hybrid = HybridServer::new(
            pool(),
            QpuServer::new(QpuOverheads::current_dw2q(), 2.0, 3),
            0.0,
        );
        let mut cpu = pool();
        let t_h = hybrid.enqueue(0.0, 0, 50, 16, 16);
        let t_c = cpu.enqueue(0.0, 50, 16);
        assert!((t_h - t_c).abs() < 1e-9);
    }

    #[test]
    fn full_fallback_serializes_both_passes() {
        let qpu = QpuServer::new(QpuOverheads::integrated(), 2.0, 3);
        let mut hybrid = HybridServer::new(pool(), qpu.clone(), 1.0);
        let mut cpu = pool();
        let t_c = cpu.enqueue(0.0, 50, 16);
        let qpu_time = qpu.service_time_us(50, 16);
        let t_h = hybrid.enqueue(0.0, 0, 50, 16, 16);
        assert!((t_h - (t_c + qpu_time)).abs() < 1e-9);
    }

    #[test]
    fn fallback_fraction_shrinks_the_quantum_pass() {
        // 10% fallback: the QPU decodes 5 of 50 problems; with a 24×
        // parallelization factor that is one batch instead of three.
        let hybrid = HybridServer::new(
            pool(),
            QpuServer::new(QpuOverheads::integrated(), 2.0, 3),
            0.1,
        );
        assert_eq!(hybrid.fallback_problems(50), 5);
        assert_eq!(hybrid.fallback_problems(0), 0);
        let all = HybridServer::new(
            pool(),
            QpuServer::new(QpuOverheads::integrated(), 2.0, 3),
            1.0,
        );
        assert_eq!(all.fallback_problems(50), 50);
    }

    #[test]
    fn reset_clears_both_backlogs() {
        let mut hybrid = HybridServer::new(
            pool(),
            QpuServer::new(QpuOverheads::integrated(), 2.0, 3),
            0.2,
        );
        let t1 = hybrid.enqueue(0.0, 0, 50, 16, 16);
        let t2 = hybrid.enqueue(0.0, 0, 50, 16, 16);
        assert!(t2 > t1);
        hybrid.reset();
        let t3 = hybrid.enqueue(0.0, 0, 50, 16, 16);
        assert!((t3 - t1).abs() < 1e-9);
    }
}
