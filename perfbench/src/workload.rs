//! The four workloads: which requests each one sends, generated from the
//! seed alone, plus the computed cost (flops, bytes) of every request.

use std::fmt;

/// Directive sources the benchmark submits. They are copies of the
/// repository's `kernels/` samples (plus a dot product), kept here so a
/// change to the samples cannot silently change the benchmark's inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Kernel {
    DotPy,
    MatVecPy,
    MatMulC,
    JacobiF90,
    MatVecMdh,
}

impl Kernel {
    pub fn source(self) -> &'static str {
        match self {
            Kernel::DotPy => include_str!("../kernels/dot.py"),
            Kernel::MatVecPy => include_str!("../kernels/matvec.py"),
            Kernel::MatMulC => include_str!("../kernels/matmul.c"),
            Kernel::JacobiF90 => include_str!("../kernels/jacobi1d.f90"),
            Kernel::MatVecMdh => include_str!("../kernels/matvec.mdh"),
        }
    }

    /// Front end the source goes through.
    pub fn front_end(self) -> &'static str {
        match self {
            Kernel::DotPy | Kernel::MatVecPy => "python",
            Kernel::MatMulC => "c",
            Kernel::JacobiF90 => "fortran",
            Kernel::MatVecMdh => "dsl",
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kernel::DotPy => "dot",
            Kernel::MatVecPy | Kernel::MatVecMdh => "matvec",
            Kernel::MatMulC => "matmul",
            Kernel::JacobiF90 => "jacobi1d",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Device {
    Cpu,
    Gpu,
}

impl Device {
    pub fn wire(self) -> &'static str {
        match self {
            Device::Cpu => "cpu",
            Device::Gpu => "gpu",
        }
    }
}

/// One request type: what the generator puts in a SUBMIT frame.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ReqType {
    pub kernel: Kernel,
    pub bindings: Vec<(&'static str, i64)>,
    pub device: Device,
    pub grad: bool,
}

impl ReqType {
    fn new(kernel: Kernel, bindings: &[(&'static str, i64)], device: Device) -> ReqType {
        ReqType {
            kernel,
            bindings: bindings.to_vec(),
            device,
            grad: false,
        }
    }

    fn size(&self, name: &str) -> f64 {
        self.bindings
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v as f64)
            .expect("binding declared by the workload")
    }

    /// The `NAME=VAL,...` field of the SUBMIT header.
    pub fn bindings_field(&self) -> String {
        self.bindings
            .iter()
            .map(|(n, v)| format!("{n}={v}"))
            .collect::<Vec<_>>()
            .join(",")
    }

    /// SUBMIT header (without the trailing newline) for one launch.
    pub fn header(&self, id: Option<u64>) -> String {
        let mut h = format!(
            "SUBMIT {} 1 {} {}",
            self.device.wire(),
            self.kernel.source().len(),
            self.bindings_field()
        );
        if self.grad {
            h.push_str(" grad=1");
        }
        if let Some(id) = id {
            h.push_str(&format!(" id={id}"));
        }
        h
    }

    /// Algorithmic flops of one launch (computed from the sizes: one
    /// multiply plus one add per reduction point; a gradient adds the
    /// two MatVec adjoints, `dM` at one flop and `dv` at two per point).
    pub fn flops(&self) -> f64 {
        let f = match self.kernel {
            Kernel::DotPy => 2.0 * self.size("N"),
            Kernel::MatVecPy | Kernel::MatVecMdh => 2.0 * self.size("I") * self.size("K"),
            Kernel::MatMulC => 2.0 * self.size("I") * self.size("J") * self.size("K"),
            Kernel::JacobiF90 => 3.0 * self.size("N"),
        };
        if self.grad {
            f * 2.5
        } else {
            f
        }
    }

    /// Bytes of the fp32 inputs and outputs of one launch (computed; a
    /// lower bound on traffic that ignores cache misses).
    pub fn bytes(&self) -> f64 {
        let elems = match self.kernel {
            Kernel::DotPy => 2.0 * self.size("N") + 1.0,
            Kernel::MatVecPy | Kernel::MatVecMdh => {
                let (i, k) = (self.size("I"), self.size("K"));
                i * k + k + i
            }
            Kernel::MatMulC => {
                let (i, j, k) = (self.size("I"), self.size("J"), self.size("K"));
                i * k + k * j + i * j
            }
            Kernel::JacobiF90 => 2.0 * self.size("N") + 2.0,
        };
        4.0 * elems
    }
}

impl fmt::Display for ReqType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}] {} {}{}",
            self.kernel.name(),
            self.kernel.front_end(),
            self.bindings_field(),
            self.device.wire(),
            if self.grad { " grad=1" } else { "" }
        )
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DotPipe,
    DenseKernels,
    ColdMix,
    GradDevices,
}

impl Workload {
    pub fn parse(s: &str) -> Option<Workload> {
        Some(match s {
            "dot_pipe" => Workload::DotPipe,
            "dense_kernels" => Workload::DenseKernels,
            "cold_mix" => Workload::ColdMix,
            "grad_devices" => Workload::GradDevices,
            _ => return None,
        })
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DotPipe => "dot_pipe",
            Workload::DenseKernels => "dense_kernels",
            Workload::ColdMix => "cold_mix",
            Workload::GradDevices => "grad_devices",
        }
    }

    /// Simulated GPU devices the server pools.
    pub fn devices(self) -> usize {
        match self {
            Workload::GradDevices => 4,
            _ => 1,
        }
    }

    /// Whether the server runs background tuning. `dense_kernels` pins
    /// the heuristic plan: a tuned MatMul plan differs between fresh
    /// servers, which would make its latency depend on the search.
    pub fn tuning(self) -> bool {
        self != Workload::DenseKernels
    }
}

/// splitmix64: a small, fixed generator so a seed means the same
/// request sequence on every platform and toolchain.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0xd6e8_feb8_6659_fd93))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

pub fn dot() -> ReqType {
    ReqType::new(Kernel::DotPy, &[("N", 1024)], Device::Cpu)
}

/// `dense_kernels`: one compute-bound, one memory-bound and one
/// legacy-path program, served round-robin.
pub fn dense_programs() -> Vec<ReqType> {
    vec![
        ReqType::new(
            Kernel::MatMulC,
            &[("I", 512), ("J", 512), ("K", 512)],
            Device::Cpu,
        ),
        ReqType::new(Kernel::MatVecPy, &[("I", 4096), ("K", 4096)], Device::Cpu),
        ReqType::new(Kernel::JacobiF90, &[("N", 1 << 20)], Device::Cpu),
    ]
}

/// `grad_devices`: a CPU gradient round trip and two launches on the
/// four-device pool.
pub fn grad_programs() -> Vec<ReqType> {
    let mut grad = ReqType::new(Kernel::MatVecPy, &[("I", 256), ("K", 256)], Device::Cpu);
    grad.grad = true;
    vec![
        grad,
        ReqType::new(Kernel::MatVecPy, &[("I", 1024), ("K", 1024)], Device::Gpu),
        ReqType::new(
            Kernel::MatMulC,
            &[("I", 256), ("J", 256), ("K", 256)],
            Device::Gpu,
        ),
    ]
}

/// `cold_mix`'s 100 size bindings, 25 per front end: more than the
/// server's front-end memo (64) and plan cache (64) hold. Sizes are
/// small so compile, lowering and cache traffic, not kernels, dominate.
fn cold_keys() -> Vec<(Kernel, Vec<(&'static str, i64)>)> {
    let mut keys = Vec::with_capacity(100);
    for (a, i) in [64, 96, 128, 160, 192].into_iter().enumerate() {
        for (b, k) in [64, 128, 192, 256, 320].into_iter().enumerate() {
            keys.push((Kernel::MatVecPy, vec![("I", i), ("K", k)]));
            keys.push((Kernel::MatVecMdh, vec![("I", i + 8), ("K", k + 8)]));
            keys.push((
                Kernel::MatMulC,
                vec![
                    ("I", 16 + 8 * a as i64),
                    ("J", 16 + 16 * b as i64),
                    ("K", 32),
                ],
            ));
            keys.push((
                Kernel::JacobiF90,
                vec![("N", 4096 + 2048 * (5 * a + b) as i64)],
            ));
        }
    }
    keys
}

/// Requests `cold_mix` sends per second of `--seconds`, split evenly
/// over its measured servers. The run is count-bounded (every one-shot
/// reply's `stats` line sorts all latency samples, so its cost grows
/// with the count); the count scales with `--seconds` but never with how
/// fast the host is.
pub const COLD_PER_SECOND: usize = 800;

/// `cold_mix`'s request sequence. The composition is fixed by `count`
/// alone: key `r` (in an order that interleaves the front ends) gets a
/// Zipf(1) share of the requests, a quarter of each key's requests go to
/// the single simulated GPU, and the seed (and the server's repetition
/// `rep`) only shuffles the order — so every seed does the same work and
/// meets the caches in another order.
pub fn cold_sequence(seed: u64, rep: u64, count: usize) -> Vec<ReqType> {
    let keys = cold_keys();
    // rank r -> front end r % 4, its (r / 4)-th size
    let mut per_front: Vec<Vec<usize>> = vec![Vec::new(); 4];
    for i in 0..keys.len() {
        per_front[i % 4].push(i);
    }
    let ranked: Vec<usize> = (0..keys.len()).map(|r| per_front[r % 4][r / 4]).collect();
    let weights: Vec<f64> = (1..=keys.len()).map(|r| 1.0 / r as f64).collect();
    let total: f64 = weights.iter().sum();
    // largest-remainder rounding so the shares add up to `count`
    let exact: Vec<f64> = weights.iter().map(|w| w / total * count as f64).collect();
    let mut n: Vec<usize> = exact.iter().map(|e| e.floor() as usize).collect();
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|a, b| (exact[*b] - n[*b] as f64).total_cmp(&(exact[*a] - n[*a] as f64)));
    let short = count - n.iter().sum::<usize>();
    for &r in order.iter().take(short) {
        n[r] += 1;
    }
    let mut seq = Vec::with_capacity(count);
    for (r, &nr) in n.iter().enumerate() {
        let (kernel, bindings) = &keys[ranked[r]];
        for j in 0..nr {
            let device = if j % 4 == 3 { Device::Gpu } else { Device::Cpu };
            seq.push(ReqType::new(*kernel, bindings, device));
        }
    }
    Rng::new(seed, 3 + rep).shuffle(&mut seq);
    seq
}

/// `grad_devices`' request sequence as indices into [`grad_programs`]:
/// rounds of all three types, each round in a seeded order, so every
/// seed sends the same mix.
pub fn grad_sequence(seed: u64, rounds: usize) -> Vec<usize> {
    let mut rng = Rng::new(seed, 7);
    let mut seq = Vec::with_capacity(rounds * 3);
    for _ in 0..rounds {
        let mut round = [0, 1, 2];
        rng.shuffle(&mut round);
        seq.extend(round);
    }
    seq
}
