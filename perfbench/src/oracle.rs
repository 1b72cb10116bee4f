//! Reference reply tokens, computed by plain loops over the server's own
//! `deterministic_inputs` and never by the backend or runtime under test.
//!
//! The inputs are small integers (-8..8), so every dot product, MatVec
//! row and MatMul entry the benchmark requests stays below 2^24 in
//! magnitude: the server's fp32 result is exact whatever its reduction
//! order, and the sums below (in f64) equal it bit for bit. Jacobi1D
//! multiplies by a non-integer constant, so its result depends on the
//! order of fp32 operations; its loop follows the program as written and
//! is checked against `mdh_core::eval::evaluate_recursive` on a small
//! instance.
//!
//! Jacobi1D is served by the backend's legacy `MapKernel` (which the
//! ROADMAP plans to retire) on the CPU and on the simulated GPU, which
//! computes on the host through the same CPU executor. That kernel
//! distributes the constant over the sum and evaluates
//! `w*x0 + w*x1 + w*x2` in fp32. The repository holds that
//! path to a relative tolerance against the reference interpreter
//! (`approx_eq(.., 1e-4)` in the `mdh-apps` stencil tests), not to bit
//! identity, so its checksum differs from the program-order one in the
//! last digits. A Jacobi1D reply must equal one of the two exactly;
//! replies that take the legacy value are counted and reported.

use crate::workload::{Device, Kernel, ReqType};
use mdh_core::buffer::Buffer;
use mdh_core::dsl::DslProgram;
use mdh_core::eval::evaluate_recursive;
use mdh_directive::DirectiveEnv;
use mdh_runtime::server::{compile_any, deterministic_inputs};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Replies whose checksum equalled [`Expected::legacy_map`] rather than
/// the program-order reference, across the whole run.
static LEGACY_MAP_REPLIES: AtomicUsize = AtomicUsize::new(0);

pub fn legacy_map_replies() -> usize {
    LEGACY_MAP_REPLIES.load(Ordering::Relaxed)
}

/// What an `ok` reply for one request type must carry.
#[derive(Debug, Clone)]
pub struct Expected {
    /// `checksum=<out>=<v>` with the server's `{:.6}` formatting.
    pub checksum: String,
    /// The `checksum=` token of the legacy `MapKernel` arithmetic, for
    /// request types served by that kernel (Jacobi1D, on every device).
    pub legacy_map: Option<String>,
    /// `grad_checksum=d_<in>=<v>,...` for gradient requests.
    pub grad_checksum: Option<String>,
}

/// Compile a request type's program the way the server does (front end
/// plus environment from the size bindings).
pub fn compile(rt: &ReqType) -> DslProgram {
    compile_any(rt.kernel.source(), &env(rt)).expect("benchmark kernels compile")
}

pub fn env(rt: &ReqType) -> DirectiveEnv {
    rt.bindings
        .iter()
        .fold(DirectiveEnv::new(), |e, (n, v)| e.size(n, *v))
}

fn f32s(b: &Buffer) -> &[f32] {
    b.as_f32().expect("benchmark kernels take fp32 inputs")
}

fn fmt6(name: &str, v: f64) -> String {
    format!("{name}={v:.6}")
}

/// Sum over `i` of row-major `m[i, k]` for each column `k`.
fn column_sums(m: &[f32], cols: usize) -> Vec<f64> {
    let mut s = vec![0.0f64; cols];
    for row in m.chunks_exact(cols) {
        for (acc, x) in s.iter_mut().zip(row) {
            *acc += *x as f64;
        }
    }
    s
}

/// Jacobi1D as the program states it, `0.333 * (x0 + x1 + x2)`: the
/// sum in fp32 (exact for these inputs), the product with the f64
/// literal in f64, rounded once to the fp32 output — the promotion rule
/// of the repository's reference interpreter, which
/// [`jacobi_agrees_with_reference`] checks.
fn jacobi(x: &[f32], n: usize) -> Vec<f32> {
    x.windows(3)
        .take(n)
        .map(|w| (0.333f64 * (w[0] + w[1] + w[2]) as f64) as f32)
        .collect()
}

/// Jacobi1D as the legacy `MapKernel` evaluates it: the weight rounded
/// to fp32, then `v = 0; v += w * x_t` over the three terms in fp32.
fn jacobi_legacy_map(x: &[f32], n: usize) -> Vec<f32> {
    let w = 0.333f64 as f32;
    x.windows(3)
        .take(n)
        .map(|t| t.iter().fold(0f32, |v, x| v + w * x))
        .collect()
}

fn sum_f64(y: &[f32]) -> f64 {
    y.iter().map(|v| *v as f64).sum()
}

/// Whether [`jacobi`] equals `mdh_core::eval::evaluate_recursive` on a
/// small instance (the recursive evaluator is too slow for the sizes the
/// benchmark serves).
pub fn jacobi_agrees_with_reference() -> bool {
    const SMALL_N: usize = 512;
    let rt = ReqType {
        kernel: Kernel::JacobiF90,
        bindings: vec![("N", SMALL_N as i64)],
        device: Device::Cpu,
        grad: false,
    };
    let prog = compile(&rt);
    let inputs = deterministic_inputs(&prog).expect("scalar inputs");
    let outs = evaluate_recursive(&prog, &inputs).expect("reference evaluation");
    f32s(&outs[0]) == jacobi(f32s(&inputs[0]), SMALL_N).as_slice()
}

pub fn expected(rt: &ReqType) -> Expected {
    let prog = compile(rt);
    let inputs = deterministic_inputs(&prog).expect("scalar inputs");
    let out = &prog.out_view.buffers[0].name;
    let size = |n: &str| {
        rt.bindings
            .iter()
            .find(|(b, _)| *b == n)
            .map(|(_, v)| *v as usize)
            .expect("binding")
    };
    let sum = match rt.kernel {
        Kernel::DotPy => {
            let (x, y) = (f32s(&inputs[0]), f32s(&inputs[1]));
            x.iter()
                .zip(y)
                .map(|(a, b)| (*a as f64) * (*b as f64))
                .sum()
        }
        // Σ_i Σ_k M[i,k] v[k] = Σ_k (Σ_i M[i,k]) v[k]
        Kernel::MatVecPy | Kernel::MatVecMdh => {
            let (m, v) = (f32s(&inputs[0]), f32s(&inputs[1]));
            column_sums(m, size("K"))
                .iter()
                .zip(v)
                .map(|(c, x)| c * *x as f64)
                .sum()
        }
        // Σ_ij Σ_k A[i,k] B[k,j] = Σ_k (Σ_i A[i,k]) (Σ_j B[k,j])
        Kernel::MatMulC => {
            let (a, b) = (f32s(&inputs[0]), f32s(&inputs[1]));
            let a_cols = column_sums(a, size("K"));
            b.chunks_exact(size("J"))
                .zip(a_cols)
                .map(|(row, ac)| ac * row.iter().map(|x| *x as f64).sum::<f64>())
                .sum()
        }
        Kernel::JacobiF90 => sum_f64(&jacobi(f32s(&inputs[0]), size("N"))),
    };
    let legacy_map = (rt.kernel == Kernel::JacobiF90).then(|| {
        let y = jacobi_legacy_map(f32s(&inputs[0]), size("N"));
        format!("checksum={}", fmt6(out, sum_f64(&y)))
    });
    let grad_checksum = rt.grad.then(|| {
        // all-ones cotangent: dM[i,k] = v[k], dv[k] = Σ_i M[i,k]
        assert!(matches!(rt.kernel, Kernel::MatVecPy | Kernel::MatVecMdh));
        let (m, v) = (f32s(&inputs[0]), f32s(&inputs[1]));
        let d_m = size("I") as f64 * v.iter().map(|x| *x as f64).sum::<f64>();
        let d_v: f64 = m.iter().map(|x| *x as f64).sum();
        format!(
            "grad_checksum={},{}",
            fmt6(&format!("d_{}", inputs[0].name), d_m),
            fmt6(&format!("d_{}", inputs[1].name), d_v)
        )
    });
    Expected {
        checksum: format!("checksum={}", fmt6(out, sum)),
        legacy_map,
        grad_checksum,
    }
}

impl Expected {
    /// Whether a reply's `checksum=` token is right: equal to the
    /// program-order reference, or to the legacy `MapKernel` value where
    /// that kernel serves the request (counted).
    pub fn accepts(&self, got: &str) -> bool {
        if got == self.checksum {
            return true;
        }
        let legacy = self.legacy_map.as_deref() == Some(got);
        if legacy {
            LEGACY_MAP_REPLIES.fetch_add(1, Ordering::Relaxed);
        }
        legacy
    }
}

/// Check one `ok ...` reply line against the reference. Returns the
/// mismatch description, if any.
pub fn check(line: &str, exp: &Expected) -> Option<String> {
    let got = line
        .split_whitespace()
        .find(|t| t.starts_with("checksum="))
        .unwrap_or("<none>");
    if !exp.accepts(got) {
        let or_legacy = exp
            .legacy_map
            .as_ref()
            .map(|l| format!(" (or legacy Map {l})"))
            .unwrap_or_default();
        return Some(format!("expected {}{or_legacy} got {got}", exp.checksum));
    }
    if let Some(g) = &exp.grad_checksum {
        let got = line
            .split_whitespace()
            .find(|t| t.starts_with("grad_checksum="))
            .unwrap_or("<none>");
        if got != g {
            return Some(format!("expected {g} got {got}"));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::cold_sequence;

    fn rt(kernel: Kernel, bindings: &[(&'static str, i64)]) -> ReqType {
        ReqType {
            kernel,
            bindings: bindings.to_vec(),
            device: Device::Cpu,
            grad: false,
        }
    }

    /// The plain loops agree with the reference interpreter on small
    /// instances of every program the benchmark sends.
    #[test]
    fn loops_match_evaluate_recursive() {
        for r in [
            rt(Kernel::DotPy, &[("N", 64)]),
            rt(Kernel::MatVecPy, &[("I", 24), ("K", 40)]),
            rt(Kernel::MatVecMdh, &[("I", 24), ("K", 40)]),
            rt(Kernel::MatMulC, &[("I", 8), ("J", 12), ("K", 16)]),
            rt(Kernel::JacobiF90, &[("N", 96)]),
        ] {
            let prog = compile(&r);
            let inputs = deterministic_inputs(&prog).unwrap();
            let outs = evaluate_recursive(&prog, &inputs).unwrap();
            let sum: f64 = f32s(&outs[0]).iter().map(|x| *x as f64).sum();
            let want = format!("checksum={}", fmt6(&outs[0].name, sum));
            assert_eq!(expected(&r).checksum, want, "{r}");
        }
    }

    /// The legacy `MapKernel` value the benchmark accepts for CPU
    /// Jacobi1D stays within the tolerance the repository holds that
    /// kernel to against the reference interpreter.
    #[test]
    fn legacy_map_jacobi_is_within_repository_tolerance() {
        let r = rt(Kernel::JacobiF90, &[("N", 512)]);
        let prog = compile(&r);
        let inputs = deterministic_inputs(&prog).unwrap();
        let want = f32s(&evaluate_recursive(&prog, &inputs).unwrap()[0]).to_vec();
        let got = jacobi_legacy_map(f32s(&inputs[0]), 512);
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() <= 1e-4 * w.abs().max(1.0), "{g} vs {w}");
        }
        assert!(expected(&r).legacy_map.is_some());
        assert!(expected(&rt(Kernel::DotPy, &[("N", 64)]))
            .legacy_map
            .is_none());
    }

    #[test]
    fn check_compares_tokens_exactly() {
        let exp = Expected {
            checksum: "checksum=w=1.000000".into(),
            legacy_map: None,
            grad_checksum: Some("grad_checksum=d_M=2.000000,d_v=3.000000".into()),
        };
        let ok = "ok hit=true exec_ms=1 checksum=w=1.000000 parts=2 grad_checksum=d_M=2.000000,d_v=3.000000";
        assert_eq!(check(ok, &exp), None);
        assert!(check(&ok.replace("w=1.000000", "w=1.000001"), &exp).is_some());
        assert!(check(&ok.replace("d_v=3", "d_v=4"), &exp).is_some());
        let legacy = Expected {
            legacy_map: Some("checksum=w=0.999999".into()),
            ..exp
        };
        assert_eq!(
            check(&ok.replace("w=1.000000", "w=0.999999"), &legacy),
            None
        );
        assert!(check(&ok.replace("w=1.000000", "w=0.999998"), &legacy).is_some());
    }

    /// Every seed sends `cold_mix` the same requests, in another order.
    #[test]
    fn cold_mix_composition_is_seed_independent() {
        let mut a = cold_sequence(1, 0, 4000);
        let mut b = cold_sequence(2, 1, 4000);
        assert_eq!(a.len(), 4000);
        assert_ne!(a, b);
        a.sort();
        b.sort();
        assert_eq!(a, b);
        let gpu = a.iter().filter(|r| r.device == Device::Gpu).count();
        assert!((900..=1100).contains(&gpu), "{gpu} GPU requests");
    }
}
