//! A forwarding [`Platform`] that times the solver's calls into the
//! platform from outside the program.
//!
//! Every method forwards to the wrapped platform unchanged, so a solve
//! through the probe produces the same bits as a solve on the bare
//! platform; the probe only adds two clock reads around each call.

use std::sync::Arc;
use std::time::Instant;

use memsci_solvers::Platform;

/// Time and calls the probe observed.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct KernelTimes {
    /// Seconds inside `spmv`, `spmv_transpose` and `spmv_batch`.
    pub spmv_s: f64,
    /// Operator applications (each right-hand side of a batch counts).
    pub spmv_calls: u64,
    /// Seconds inside `dot`, `axpby`, `axpy`, `assign` and `norm`.
    pub blas1_s: f64,
}

/// Forwards every [`Platform`] method to `inner`, timing the kernels.
#[derive(Debug)]
pub struct Probe<'a, P: Platform + ?Sized> {
    inner: &'a mut P,
    times: KernelTimes,
}

impl<'a, P: Platform + ?Sized> Probe<'a, P> {
    /// Wraps `inner`.
    pub fn new(inner: &'a mut P) -> Self {
        Probe {
            inner,
            times: KernelTimes::default(),
        }
    }

    /// What the probe has observed so far.
    pub fn times(&self) -> KernelTimes {
        self.times
    }

    fn spmv_timed<R>(&mut self, applications: u64, f: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner);
        self.times.spmv_s += t.elapsed().as_secs_f64();
        self.times.spmv_calls += applications;
        r
    }

    fn blas1_timed<R>(&mut self, f: impl FnOnce(&mut P) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner);
        self.times.blas1_s += t.elapsed().as_secs_f64();
        r
    }
}

impl<P: Platform + ?Sized> Platform for Probe<'_, P> {
    fn n(&self) -> usize {
        self.inner.n()
    }
    fn spmv(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmv_timed(1, |p| p.spmv(x, y))
    }
    fn spmv_transpose(&mut self, x: &[f64], y: &mut [f64]) {
        self.spmv_timed(1, |p| p.spmv_transpose(x, y))
    }
    fn spmv_batch(&mut self, xs: &[&[f64]], ys: &mut [Vec<f64>]) {
        self.spmv_timed(xs.len() as u64, |p| p.spmv_batch(xs, ys))
    }
    fn dot(&mut self, x: &[f64], y: &[f64]) -> f64 {
        self.blas1_timed(|p| p.dot(x, y))
    }
    fn axpby(&mut self, alpha: f64, x: &[f64], beta: f64, y: &mut [f64]) {
        self.blas1_timed(|p| p.axpby(alpha, x, beta, y))
    }
    fn axpy(&mut self, alpha: f64, x: &[f64], y: &mut [f64]) {
        self.blas1_timed(|p| p.axpy(alpha, x, y))
    }
    fn assign(&mut self, src: &[f64], dst: &mut [f64]) {
        self.blas1_timed(|p| p.assign(src, dst))
    }
    fn norm(&mut self, x: &[f64]) -> f64 {
        self.blas1_timed(|p| p.norm(x))
    }
    fn diagonal(&self) -> Arc<[f64]> {
        self.inner.diagonal()
    }
    fn elapsed_seconds(&self) -> f64 {
        self.inner.elapsed_seconds()
    }
    fn energy_joules(&self) -> f64 {
        self.inner.energy_joules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memsci_gpu::GpuPlatform;
    use memsci_solvers::bicgstab::bicgstab;
    use memsci_solvers::cg::cg;
    use memsci_solvers::{CsrPlatform, SolveOptions};
    use memsci_sparse::generate::poisson2d;

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn every_method_passes_through_unchanged() {
        let a = poisson2d(6, 6);
        let n = a.rows();
        let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.37).sin()).collect();
        let z: Vec<f64> = (0..n).map(|i| (i as f64 * 0.11).cos()).collect();
        let mut bare = GpuPlatform::new(a.clone());
        let mut inner = GpuPlatform::new(a);
        let mut probe = Probe::new(&mut inner);
        assert_eq!(probe.n(), bare.n());

        let (mut y0, mut y1) = (vec![0.0; n], vec![0.0; n]);
        bare.spmv(&x, &mut y0);
        probe.spmv(&x, &mut y1);
        assert_eq!(bits(&y0), bits(&y1));
        bare.spmv_transpose(&z, &mut y0);
        probe.spmv_transpose(&z, &mut y1);
        assert_eq!(bits(&y0), bits(&y1));
        let (mut b0, mut b1) = (vec![Vec::new(), Vec::new()], vec![Vec::new(), Vec::new()]);
        bare.spmv_batch(&[&x, &z], &mut b0);
        probe.spmv_batch(&[&x, &z], &mut b1);
        assert_eq!(bits(&b0[1]), bits(&b1[1]));

        assert_eq!(bare.dot(&x, &z).to_bits(), probe.dot(&x, &z).to_bits());
        assert_eq!(bare.norm(&x).to_bits(), probe.norm(&x).to_bits());
        let (mut w0, mut w1) = (z.clone(), z.clone());
        bare.axpby(0.5, &x, -2.0, &mut w0);
        probe.axpby(0.5, &x, -2.0, &mut w1);
        bare.axpy(3.0, &x, &mut w0);
        probe.axpy(3.0, &x, &mut w1);
        assert_eq!(bits(&w0), bits(&w1));
        bare.assign(&x, &mut w0);
        probe.assign(&x, &mut w1);
        assert_eq!(bits(&w0), bits(&w1));
        assert_eq!(bits(&bare.diagonal()), bits(&probe.diagonal()));
        // Modelled cost is forwarded, not re-derived.
        assert_eq!(
            bare.elapsed_seconds().to_bits(),
            probe.elapsed_seconds().to_bits()
        );
        assert_eq!(
            bare.energy_joules().to_bits(),
            probe.energy_joules().to_bits()
        );

        let t = probe.times();
        assert_eq!(t.spmv_calls, 4, "two solo products plus a batch of two");
        assert!(t.spmv_s > 0.0 && t.blas1_s > 0.0);
    }

    #[test]
    fn solves_through_the_probe_are_bitwise_equal() {
        let a = poisson2d(8, 8);
        let n = a.rows();
        let b: Vec<f64> = (0..n).map(|i| 1.0 + (i % 3) as f64).collect();
        let opts = SolveOptions::with_tol(1e-10);
        for spd in [true, false] {
            let mut bare = CsrPlatform::new(a.clone());
            let mut inner = CsrPlatform::new(a.clone());
            let (mut x0, mut x1) = (vec![0.0; n], vec![0.0; n]);
            let (r0, r1) = if spd {
                let r0 = cg(&mut bare, &b, &mut x0, &opts);
                (r0, cg(&mut Probe::new(&mut inner), &b, &mut x1, &opts))
            } else {
                let r0 = bicgstab(&mut bare, &b, &mut x0, &opts);
                (
                    r0,
                    bicgstab(&mut Probe::new(&mut inner), &b, &mut x1, &opts),
                )
            };
            assert_eq!(bits(&x0), bits(&x1));
            assert_eq!(r0.iterations, r1.iterations);
            assert_eq!(
                r0.relative_residual.to_bits(),
                r1.relative_residual.to_bits()
            );
        }
    }
}
