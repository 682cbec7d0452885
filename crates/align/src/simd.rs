//! Vectorised block fill: the `B×B` block DP recomputed as an anti-diagonal
//! wavefront, which removes every intra-iteration dependency (cells on one
//! block anti-diagonal depend only on the previous two), so each diagonal's
//! `B` lanes compute in parallel.
//!
//! The fills are generic over the block side `B ∈ {8, 16}` (see
//! [`crate::BLOCK`] / [`crate::MAX_BLOCK`]); the concrete vector kernels are
//! monomorphic and reached through geometry-guarded dispatch:
//!
//! * [`fill_wavefront`] (i32): at B=8 an AVX2 kernel on x86-64 when the CPU
//!   supports it (one 8×i32 vector per diagonal — the vector is already
//!   full), otherwise a portable fixed-lane wavefront that LLVM
//!   auto-vectorises. At B=16 the i32 path is intentionally the portable
//!   wavefront: AVX2 has no wider i32 vector to fill, so there is nothing
//!   for a hand-written kernel to win (B=16 is only ever forced).
//! * [`fill_wavefront_i16`]: at B=8 the SSE4.1 kernel (8×i16, AVX2-encoded
//!   on AVX2 hosts); at B=16 the wide AVX2 kernel that fills all 16 i16
//!   lanes of a 256-bit vector per block diagonal — the payoff geometry.
//! * Every backend is **bit-identical** to [`crate::block::fill_scalar`] at
//!   the same geometry: every cell's `H/E/F` is computed from exactly the
//!   same inputs with exactly the same integer operations — only the
//!   evaluation order differs, and no reassociation of `max`/`+` takes
//!   place. The one scalar-path difference, `saturating_add` on the
//!   diagonal term, is neutralised by
//!   [`crate::block::BlockCtx::simd_exact`], which routes tasks whose
//!   scores could approach the `i32` limits back to the scalar fill.
//!
//! ## Wavefront bookkeeping
//!
//! Lane `l` of diagonal `d` holds cell `(i0+l, j0+d-l)`. With that layout:
//!
//! * *left* (`H/F(i, j-1)`) is lane `l` of diagonal `d-1` — no shift;
//! * *up* (`H/E(i-1, j)`) is lane `l-1` of diagonal `d-1` — shift one lane,
//!   injecting the west boundary at lane 0;
//! * *diag* (`H(i-1, j-1)`) is lane `l-1` of diagonal `d-2` — same shift,
//!   injecting `corner`/west;
//! * the north boundary is pre-seeded into lane `d+1` of diagonal `d`'s
//!   state (an out-of-shape lane), so `left`/`diag` reads pick it up with
//!   no per-lane patching.

//! ## The 16-bit tier
//!
//! [`fill_wavefront_i16`] is the same wavefront at half the lane width:
//! saturating i16 arithmetic with [`NEG_INF16`] as the sentinel, gated by
//! [`crate::block::BlockCtx::i16_exact`] (the i16 analogue of
//! `simd_exact`, derived per geometry — see
//! [`crate::block::BlockCtx::with_block_dim`]). Boundary carries stay `i32`
//! at the interface and are converted with `i32 → i16` saturation at block
//! entry (exact for every reachable real value under the gate;
//! `-∞`-derived values collapse into the sentinel class, which by
//! construction loses every `max` against a real value just as in the i32
//! fills). Valid-lane `H` values are therefore bit-identical to the scalar
//! fill; only masked lanes and boundary slots for masked cells carry a
//! different (equally ultra-negative) encoding, and nothing downstream
//! observes those.

use crate::block::{
    block_diags, BlockCells, BlockCells16, BlockCellsT, BlockCtx, Boundary, BoundaryT, BLOCK_DIAGS,
};
use crate::{BLOCK, MAX_BLOCK, MAX_BLOCK_DIAGS, NEG_INF};

/// Sentinel for "minus infinity" in the 16-bit tier: `i16::MIN / 2`, the
/// same factor-two headroom [`NEG_INF`] keeps in i32 space. Saturating
/// arithmetic may pin sentinel-derived values anywhere in
/// `[i16::MIN, NEG_INF16]`; the i16 exactness gate keeps every real value
/// (and every real value minus one penalty) strictly above that band.
pub const NEG_INF16: i16 = i16::MIN / 2;

/// Exact `i32 → i16` entry conversion for the 16-bit tier: saturating
/// narrowing (the scalar twin of `_mm_packs_epi32`). Real values are
/// unchanged (the gate bounds them well inside i16), `-∞`-class values
/// saturate into the sentinel band.
#[inline]
pub(crate) fn to16(v: i32) -> i16 {
    v.clamp(i32::from(i16::MIN), i32::from(i16::MAX)) as i16
}

/// Per-diagonal substitution lanes for a matrix score model: entry
/// `[d][l] = S(R[l], Q[d-l])` for every in-wavefront lane (`l ≤ d < l+B`),
/// zero elsewhere (those lanes are masked off downstream). The vector
/// kernels load one row per diagonal in place of the fixed-model
/// compare/blend sequence.
///
/// When the block context carries a [`crate::QueryProfile`] built for this
/// matrix and query, rows come from its precomputed `S(c, Q[j])` tables
/// (contiguous reads, no two-level gather); otherwise they fall back to
/// direct matrix lookups. Both paths produce identical lanes: profile tail
/// slots score the pad residue exactly as `unpack_block`'s pad-clamped
/// `qcodes` do.
#[inline]
fn matrix_sub_lanes<const B: usize>(
    ctx: &BlockCtx<'_>,
    m: &'static crate::scoring::SubstMatrix,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
) -> [[i16; B]; MAX_BLOCK_DIAGS] {
    let mut out = [[0i16; B]; MAX_BLOCK_DIAGS];
    match ctx.profile {
        Some(p) if p.covers(m, ctx.m as usize) => {
            debug_assert!(j0 >= 0 && j0 < ctx.m, "block starts inside the query");
            for (l, &rc) in rcodes.iter().enumerate() {
                let row = &p.row(rc)[j0 as usize..j0 as usize + B];
                for (k, &s) in row.iter().enumerate() {
                    out[l + k][l] = s;
                }
            }
        }
        _ => {
            for (l, &rc) in rcodes.iter().enumerate() {
                for (k, &qc) in qcodes.iter().enumerate() {
                    out[l + k][l] = m.score(rc, qc) as i16;
                }
            }
        }
    }
    out
}

/// Reinterpret a reference between two monomorphizations that the caller
/// has proven (via a `B == const` guard) to be the *same* type. The size
/// and alignment asserts turn any misuse into a loud panic instead of UB;
/// for a correctly guarded call they compile away.
#[inline(always)]
#[allow(dead_code)] // only the x86-64 dispatchers need it
fn geom_cast<Src, Dst>(x: &Src) -> &Dst {
    assert_eq!(std::mem::size_of::<Src>(), std::mem::size_of::<Dst>());
    assert_eq!(std::mem::align_of::<Src>(), std::mem::align_of::<Dst>());
    // SAFETY: size/align asserted above, and every call site sits under a
    // geometry guard making Src and Dst the same monomorphization.
    unsafe { &*(x as *const Src).cast::<Dst>() }
}

/// Mutable twin of [`geom_cast`].
#[inline(always)]
#[allow(dead_code)]
fn geom_cast_mut<Src, Dst>(x: &mut Src) -> &mut Dst {
    assert_eq!(std::mem::size_of::<Src>(), std::mem::size_of::<Dst>());
    assert_eq!(std::mem::align_of::<Src>(), std::mem::align_of::<Dst>());
    // SAFETY: as in `geom_cast`.
    unsafe { &mut *(x as *mut Src).cast::<Dst>() }
}

/// Whether the AVX2 backend will be used on this machine.
pub fn avx2_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the SSE4.1 tier (the 16-bit kernel and the `phminposuw` tracker
/// fold need nothing newer) is available on this machine.
pub fn sse41_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("sse4.1")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Whether the AVX-512 backend will be used on this machine. The kernels
/// need `avx512bw` (16-bit ops at 512/256-bit width) plus `avx512vl` (mask
/// registers on 256-bit vectors); the AVX2 check rides along so an
/// `Avx512`-resolved backend may always fall through to the AVX2 kernels
/// where 512-bit width buys nothing (the B=8 geometry).
pub fn avx512_active() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vl")
            && std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

/// Which wavefront implementation the dispatcher will run. Resolved once
/// per task (stored in [`BlockCtx`]) so the per-block hot path pays no
/// repeated feature-detection load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WavefrontBackend {
    /// x86-64 with AVX-512BW/VL: the B=16 i16 fill runs with mask-register
    /// edge handling and fused dual-diagonal zmm stores, the B=16 i32 fill
    /// packs all 16 lanes into one zmm, and the tracker folds the 16-lane
    /// argmax with a four-quarter `phminposuw` merge. The B=8 geometry
    /// reuses the AVX2 kernels (its vectors are already full).
    Avx512,
    /// x86-64 with AVX2: one 8×i32 AVX2 vector per block diagonal in the
    /// i32 tier, 8×i16 SSE vectors in the B=8 i16 tier, and one full
    /// 16×i16 AVX2 vector per diagonal in the B=16 i16 tier.
    Avx2,
    /// x86-64 with SSE4.1 but not AVX2: the B=8 i16 tier still runs its
    /// vector kernel (it needs nothing wider than 128-bit ops); the i32
    /// tier and the B=16 geometry run the portable wavefront.
    Sse41,
    /// Fixed-lane portable wavefront for both tiers.
    Portable,
}

impl WavefrontBackend {
    /// Stable lower-case name (bench rows, stats output).
    pub fn name(self) -> &'static str {
        match self {
            WavefrontBackend::Avx512 => "avx512",
            WavefrontBackend::Avx2 => "avx2",
            WavefrontBackend::Sse41 => "sse41",
            WavefrontBackend::Portable => "portable",
        }
    }

    /// Position in the capability chain `Portable < Sse41 < Avx2 < Avx512`
    /// (a forced choice is clamped to the machine's detected rank).
    fn rank(self) -> u8 {
        match self {
            WavefrontBackend::Portable => 0,
            WavefrontBackend::Sse41 => 1,
            WavefrontBackend::Avx2 => 2,
            WavefrontBackend::Avx512 => 3,
        }
    }
}

/// A requested backend: `Auto` runs the best detected implementation; a
/// named backend caps the dispatch chain at that level. Parsed from
/// `AGATHA_BACKEND` / `--backend` and installed process-wide with
/// [`set_backend_choice`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BackendChoice {
    /// Best detected backend (the default).
    #[default]
    Auto,
    /// Dispatch as if this were the best backend the machine supports
    /// (requests above the detected capability degrade to the detected
    /// backend — forcing `avx512` on an AVX2 machine runs AVX2).
    Fixed(WavefrontBackend),
}

impl BackendChoice {
    /// Parse a backend name as accepted by `AGATHA_BACKEND` / `--backend`.
    pub fn parse(name: &str) -> Result<BackendChoice, String> {
        match name.trim().to_ascii_lowercase().as_str() {
            "auto" => Ok(BackendChoice::Auto),
            "avx512" => Ok(BackendChoice::Fixed(WavefrontBackend::Avx512)),
            "avx2" => Ok(BackendChoice::Fixed(WavefrontBackend::Avx2)),
            "sse41" => Ok(BackendChoice::Fixed(WavefrontBackend::Sse41)),
            "portable" => Ok(BackendChoice::Fixed(WavefrontBackend::Portable)),
            other => Err(format!(
                "invalid backend '{other}': expected auto, avx512, avx2, sse41 or portable"
            )),
        }
    }

    /// Stable lower-case name (round-trips through [`BackendChoice::parse`]).
    pub fn name(self) -> &'static str {
        match self {
            BackendChoice::Auto => "auto",
            BackendChoice::Fixed(b) => b.name(),
        }
    }
}

/// Process-wide backend choice, encoded for the atomic: 0 = Auto, else
/// `rank + 1` of the forced backend. A plain atomic (not a `OnceLock`) so
/// benches and the backend-sweep tests can flip backends between runs in
/// one process; resolution stays per task (hoisted into [`BlockCtx`] /
/// [`crate::diag::DiagTracker`]), so a flip never splits one task's blocks
/// across backends.
static BACKEND_CHOICE: std::sync::atomic::AtomicU8 = std::sync::atomic::AtomicU8::new(0);

/// Install the process-wide backend choice (see [`BackendChoice`]).
pub fn set_backend_choice(choice: BackendChoice) {
    let enc = match choice {
        BackendChoice::Auto => 0,
        BackendChoice::Fixed(b) => b.rank() + 1,
    };
    BACKEND_CHOICE.store(enc, std::sync::atomic::Ordering::Relaxed);
}

/// The currently installed process-wide backend choice.
pub fn backend_choice() -> BackendChoice {
    match BACKEND_CHOICE.load(std::sync::atomic::Ordering::Relaxed) {
        0 => BackendChoice::Auto,
        1 => BackendChoice::Fixed(WavefrontBackend::Portable),
        2 => BackendChoice::Fixed(WavefrontBackend::Sse41),
        3 => BackendChoice::Fixed(WavefrontBackend::Avx2),
        _ => BackendChoice::Fixed(WavefrontBackend::Avx512),
    }
}

/// Serializes tests that flip the process-wide [`BackendChoice`] against
/// tests whose *assertions* observe [`backend()`] (e.g. the forced-backend
/// sweeps in this module's tests). Result-only comparisons don't need it —
/// every backend is bit-identical by contract.
#[cfg(test)]
pub(crate) fn backend_test_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A forced-backend test that panics mid-flip poisons the lock; the
    // state it guards is restored by the panicking test's unwind path or
    // irrelevant to the next holder, so keep going.
    LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// The best backend this machine supports (runtime CPU detection, cached
/// by `std`), ignoring any forced choice.
pub fn detected_backend() -> WavefrontBackend {
    if avx512_active() {
        WavefrontBackend::Avx512
    } else if avx2_active() {
        WavefrontBackend::Avx2
    } else if sse41_active() {
        WavefrontBackend::Sse41
    } else {
        WavefrontBackend::Portable
    }
}

/// Resolve the backend for this machine: the detected capability, capped
/// by the process-wide [`BackendChoice`] (call once per task, not per
/// block). Forcing never *raises* the level — a request the CPU cannot
/// honour clamps to the detected backend, so dispatch stays sound.
pub fn backend() -> WavefrontBackend {
    let detected = detected_backend();
    match backend_choice() {
        BackendChoice::Auto => detected,
        BackendChoice::Fixed(forced) => {
            if forced.rank() <= detected.rank() {
                forced
            } else {
                detected
            }
        }
    }
}

/// Every backend this machine can actually run, best first — the sweep
/// domain for forced-backend tests, the CLI's `--verbose` stats, and the
/// bench's per-backend rows. Always ends with `Portable`.
pub fn supported_backends() -> Vec<WavefrontBackend> {
    let detected = detected_backend();
    [
        WavefrontBackend::Avx512,
        WavefrontBackend::Avx2,
        WavefrontBackend::Sse41,
        WavefrontBackend::Portable,
    ]
    .into_iter()
    .filter(|b| b.rank() <= detected.rank())
    .collect()
}

/// Wavefront fill (drop-in replacement for [`crate::block::fill_scalar`]),
/// dispatching on the pre-resolved backend in `ctx` and the geometry `B`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_wavefront<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: &mut BoundaryT<B>,
    west_e: &mut BoundaryT<B>,
    north_h: &mut BoundaryT<B>,
    north_f: &mut BoundaryT<B>,
    cells: &mut BlockCellsT<i32, B>,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if B == BLOCK
            && matches!(ctx.wavefront_backend, WavefrontBackend::Avx2 | WavefrontBackend::Avx512)
        {
            // SAFETY: `backend()` only reports Avx2/Avx512 after a runtime
            // AVX2 check (`avx512_active` includes it: at B=8 the AVX2
            // kernel's 8×i32 vector is already full, so AVX-512 reuses it);
            // the `B == BLOCK` guard makes every `geom_cast` an identity.
            unsafe {
                return avx2::fill(
                    ctx,
                    i0,
                    j0,
                    geom_cast(rcodes),
                    geom_cast(qcodes),
                    corner,
                    geom_cast_mut(west_h),
                    geom_cast_mut(west_e),
                    geom_cast_mut(north_h),
                    geom_cast_mut(north_f),
                    geom_cast_mut(cells),
                );
            }
        }
        if B == MAX_BLOCK && ctx.wavefront_backend == WavefrontBackend::Avx512 {
            // SAFETY: AVX-512F/BW/VL verified at runtime by `backend()`;
            // `B == MAX_BLOCK` makes every `geom_cast` an identity.
            unsafe {
                return avx512_i32w::fill(
                    ctx,
                    i0,
                    j0,
                    geom_cast(rcodes),
                    geom_cast(qcodes),
                    corner,
                    geom_cast_mut(west_h),
                    geom_cast_mut(west_e),
                    geom_cast_mut(north_h),
                    geom_cast_mut(north_f),
                    geom_cast_mut(cells),
                );
            }
        }
    }
    // B=16 i32 runs portable below AVX-512 by design: AVX2 i32 vectors are
    // full at 8 lanes, so only a 16×i32 zmm has room for the wide geometry
    // (the i32 zmm fill serves forced-B16 runs and per-task i16→i32
    // demotions inside them).
    fill_portable(ctx, i0, j0, rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells)
}

/// Per-diagonal valid-lane bitmask (`0` when empty), plus the inclusive
/// bounds for the mask vector build.
#[inline]
fn lane_mask(ctx: &BlockCtx<'_>, i0: i64, j0: i64, d: usize) -> u16 {
    match ctx.lane_range(i0, j0, d) {
        None => 0,
        Some((lo, hi)) => (((1u32) << (hi + 1)) - (1 << lo)) as u16,
    }
}

/// Structural lane bitmask of block diagonal `d` at block side `b` (lanes
/// inside the `b×b` shape regardless of band/table).
#[inline]
const fn struct_mask(b: usize, d: usize) -> u16 {
    let lo = if d >= b { d - (b - 1) } else { 0 };
    let hi = if d < b { d } else { b - 1 };
    (((1u32 << (hi + 1)) - (1 << lo)) & 0xFFFF) as u16
}

/// Portable fixed-lane wavefront (also the semantic reference for the AVX2
/// backend). Straight-line per-lane arithmetic over `[i32; B]` rows.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_portable<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: &mut BoundaryT<B>,
    west_e: &mut BoundaryT<B>,
    north_h: &mut BoundaryT<B>,
    north_f: &mut BoundaryT<B>,
    cells: &mut BlockCellsT<i32, B>,
) {
    let sc = ctx.scoring;
    let oe = sc.gap_open + sc.gap_extend;
    let ext = sc.gap_extend;
    let interior = ctx.block_interior(i0, j0);

    // Boundary inputs are consumed across several diagonals while the same
    // arrays double as outputs; snapshot them first.
    let wh_in = *west_h;
    let we_in = *west_e;
    let nh_in = *north_h;
    let nf_in = *north_f;

    // State of diagonals d-1 ("prev") and d-2 ("prev2"). `h_prev` lane 0 is
    // pre-seeded with the north boundary of row 0 ("H_{-1}").
    let mut h_prev = [NEG_INF; B];
    let mut e_prev = [NEG_INF; B];
    let mut f_prev = [NEG_INF; B];
    let mut h_prev2 = [NEG_INF; B];
    h_prev[0] = nh_in[0];
    f_prev[0] = nf_in[0];

    for d in 0..block_diags(B) {
        // Boundary injections for lane 0 (only meaningful while lane 0 is
        // inside the block shape, i.e. d < B).
        let bh = if d < B { wh_in[d] } else { NEG_INF };
        let be = if d < B { we_in[d] } else { NEG_INF };
        let bd = if d == 0 {
            corner
        } else if d <= B {
            wh_in[d - 1]
        } else {
            NEG_INF
        };

        let mask = if interior { struct_mask(B, d) } else { lane_mask(ctx, i0, j0, d) };

        let mut h_cur = [NEG_INF; B];
        let mut e_cur = [NEG_INF; B];
        let mut f_cur = [NEG_INF; B];
        for l in 0..B {
            let up_h = if l == 0 { bh } else { h_prev[l - 1] };
            let up_e = if l == 0 { be } else { e_prev[l - 1] };
            let dg = if l == 0 { bd } else { h_prev2[l - 1] };
            let left_h = h_prev[l];
            let left_f = f_prev[l];
            let e = (up_h - oe).max(up_e - ext);
            let f = (left_h - oe).max(left_f - ext);
            // Out-of-shape lanes get a zero substitution score; their values
            // are masked to -∞ below and never feed an in-shape lane.
            let sub =
                if l <= d && d - l < B { sc.substitution(rcodes[l], qcodes[d - l]) } else { 0 };
            let h = e.max(f).max(dg.wrapping_add(sub));
            let valid = mask & (1 << l) != 0;
            h_cur[l] = if valid { h } else { NEG_INF };
            e_cur[l] = if valid { e } else { NEG_INF };
            f_cur[l] = if valid { f } else { NEG_INF };
        }

        cells.h[d] = h_cur;
        cells.mask[d] = mask;

        // Boundary outputs: lane B-1 of diagonal B-1+k is the block's last
        // row (the west output for column k); lane l of diagonal l+B-1 is
        // the block's last column (the north output for row l).
        if d >= B - 1 {
            let k = d - (B - 1);
            west_h[k] = h_cur[B - 1];
            west_e[k] = e_cur[B - 1];
            north_h[k] = h_cur[k];
            north_f[k] = f_cur[k];
        }

        // Pre-seed the north boundary of row d+1 into the out-of-shape lane
        // d+1 so the next diagonals read it as left/diag with no patching.
        if d + 1 < B {
            h_cur[d + 1] = nh_in[d + 1];
            f_cur[d + 1] = nf_in[d + 1];
        }

        h_prev2 = h_prev;
        h_prev = h_cur;
        e_prev = e_cur;
        f_prev = f_cur;
    }
}

/// 16-bit-tier wavefront fill (the narrow twin of [`fill_wavefront`]),
/// staging into a `BlockCellsT<i16, B>` buffer. Dispatches on the
/// pre-resolved backend in `ctx` and the geometry `B`; all backends are
/// bit-identical to each other and — on valid lanes, under
/// [`BlockCtx::i16_exact`] — to the scalar fill.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_wavefront_i16<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: &mut BoundaryT<B>,
    west_e: &mut BoundaryT<B>,
    north_h: &mut BoundaryT<B>,
    north_f: &mut BoundaryT<B>,
    cells: &mut BlockCellsT<i16, B>,
) {
    #[cfg(target_arch = "x86_64")]
    {
        if B == BLOCK && ctx.wavefront_backend != WavefrontBackend::Portable {
            // SAFETY: `backend()` only reports a vector variant after a
            // runtime CPU check, the B=8 kernel needs nothing newer than
            // SSE4.1 (AVX2 implies it; the Avx2 wrapper exists purely so
            // the same body recompiles with VEX encodings on AVX2-or-wider
            // machines — AVX-512 hosts take the same wrapper, as the 8×i16
            // vector leaves 512-bit width nothing to fuse), and the
            // `B == BLOCK` guard makes every `geom_cast` an identity.
            unsafe {
                if ctx.wavefront_backend != WavefrontBackend::Sse41 {
                    sse41_i16::fill_avx2(
                        ctx,
                        i0,
                        j0,
                        geom_cast(rcodes),
                        geom_cast(qcodes),
                        corner,
                        geom_cast_mut(west_h),
                        geom_cast_mut(west_e),
                        geom_cast_mut(north_h),
                        geom_cast_mut(north_f),
                        geom_cast_mut(cells),
                    );
                } else {
                    sse41_i16::fill_sse41(
                        ctx,
                        i0,
                        j0,
                        geom_cast(rcodes),
                        geom_cast(qcodes),
                        corner,
                        geom_cast_mut(west_h),
                        geom_cast_mut(west_e),
                        geom_cast_mut(north_h),
                        geom_cast_mut(north_f),
                        geom_cast_mut(cells),
                    );
                }
            }
            debug_overflow_sentinel(cells);
            return;
        }
        if B == MAX_BLOCK && ctx.wavefront_backend == WavefrontBackend::Avx512 {
            // SAFETY: AVX-512BW/VL verified at runtime; `B == MAX_BLOCK`
            // guard makes every `geom_cast` an identity.
            unsafe {
                avx512_i16w::fill(
                    ctx,
                    i0,
                    j0,
                    geom_cast(rcodes),
                    geom_cast(qcodes),
                    corner,
                    geom_cast_mut(west_h),
                    geom_cast_mut(west_e),
                    geom_cast_mut(north_h),
                    geom_cast_mut(north_f),
                    geom_cast_mut(cells),
                );
            }
            debug_overflow_sentinel(cells);
            return;
        }
        if B == MAX_BLOCK && ctx.wavefront_backend == WavefrontBackend::Avx2 {
            // SAFETY: AVX2 verified at runtime; `B == MAX_BLOCK` guard makes
            // every `geom_cast` an identity.
            unsafe {
                avx2_i16w::fill(
                    ctx,
                    i0,
                    j0,
                    geom_cast(rcodes),
                    geom_cast(qcodes),
                    corner,
                    geom_cast_mut(west_h),
                    geom_cast_mut(west_e),
                    geom_cast_mut(north_h),
                    geom_cast_mut(north_f),
                    geom_cast_mut(cells),
                );
            }
            debug_overflow_sentinel(cells);
            return;
        }
    }
    fill_portable_i16(ctx, i0, j0, rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells);
    debug_overflow_sentinel(cells);
}

/// Per-block overflow sentinel (debug builds): a valid lane pinned at
/// `i16::MAX` means a real DP value positively saturated — impossible when
/// the `i16_exact` gate admitted the task at this geometry, so tripping
/// this indicates a broken gate or dispatch. Negative saturation is by
/// design (sentinel class) and harmless.
#[inline]
fn debug_overflow_sentinel<const B: usize>(cells: &BlockCellsT<i16, B>) {
    if cfg!(debug_assertions) {
        for d in 0..block_diags(B) {
            for l in 0..B {
                debug_assert!(
                    cells.mask[d] & (1 << l) == 0 || cells.h[d][l] != i16::MAX,
                    "i16 overflow sentinel: valid cell saturated at block ({},{}) \
                     diag {d} lane {l} — the i16_exact gate must demote such tasks",
                    cells.i0(),
                    cells.j0(),
                );
            }
        }
    }
}

/// Portable 16-bit wavefront (also the semantic reference for the vector
/// i16 backends at both geometries). Mirrors [`fill_portable`] lane for
/// lane with saturating i16 arithmetic and [`NEG_INF16`] masking.
#[allow(clippy::too_many_arguments)]
pub(crate) fn fill_portable_i16<const B: usize>(
    ctx: &BlockCtx<'_>,
    i0: i64,
    j0: i64,
    rcodes: &[u8; B],
    qcodes: &[u8; B],
    corner: i32,
    west_h: &mut BoundaryT<B>,
    west_e: &mut BoundaryT<B>,
    north_h: &mut BoundaryT<B>,
    north_f: &mut BoundaryT<B>,
    cells: &mut BlockCellsT<i16, B>,
) {
    let sc = ctx.scoring;
    let oe = to16(sc.gap_open + sc.gap_extend);
    let ext = to16(sc.gap_extend);
    let interior = ctx.block_interior(i0, j0);

    // Entry conversion of the i32 boundary carries (exact on real values).
    let wh_in = west_h.map(to16);
    let we_in = west_e.map(to16);
    let nh_in = north_h.map(to16);
    let nf_in = north_f.map(to16);
    let corner16 = to16(corner);

    let mut h_prev = [NEG_INF16; B];
    let mut e_prev = [NEG_INF16; B];
    let mut f_prev = [NEG_INF16; B];
    let mut h_prev2 = [NEG_INF16; B];
    h_prev[0] = nh_in[0];
    f_prev[0] = nf_in[0];

    for d in 0..block_diags(B) {
        let bh = if d < B { wh_in[d] } else { NEG_INF16 };
        let be = if d < B { we_in[d] } else { NEG_INF16 };
        let bd = if d == 0 {
            corner16
        } else if d <= B {
            wh_in[d - 1]
        } else {
            NEG_INF16
        };

        let mask = if interior { struct_mask(B, d) } else { lane_mask(ctx, i0, j0, d) };

        let mut h_cur = [NEG_INF16; B];
        let mut e_cur = [NEG_INF16; B];
        let mut f_cur = [NEG_INF16; B];
        for l in 0..B {
            let up_h = if l == 0 { bh } else { h_prev[l - 1] };
            let up_e = if l == 0 { be } else { e_prev[l - 1] };
            let dg = if l == 0 { bd } else { h_prev2[l - 1] };
            let left_h = h_prev[l];
            let left_f = f_prev[l];
            let e = up_h.saturating_sub(oe).max(up_e.saturating_sub(ext));
            let f = left_h.saturating_sub(oe).max(left_f.saturating_sub(ext));
            let sub = if l <= d && d - l < B {
                to16(sc.substitution(rcodes[l], qcodes[d - l]))
            } else {
                0
            };
            let h = e.max(f).max(dg.saturating_add(sub));
            let valid = mask & (1 << l) != 0;
            h_cur[l] = if valid { h } else { NEG_INF16 };
            e_cur[l] = if valid { e } else { NEG_INF16 };
            f_cur[l] = if valid { f } else { NEG_INF16 };
        }

        cells.h[d] = h_cur;
        cells.mask[d] = mask;

        if d >= B - 1 {
            let k = d - (B - 1);
            west_h[k] = i32::from(h_cur[B - 1]);
            west_e[k] = i32::from(e_cur[B - 1]);
            north_h[k] = i32::from(h_cur[k]);
            north_f[k] = i32::from(f_cur[k]);
        }

        if d + 1 < B {
            h_cur[d + 1] = nh_in[d + 1];
            f_cur[d + 1] = nf_in[d + 1];
        }

        h_prev2 = h_prev;
        h_prev = h_cur;
        e_prev = e_cur;
        f_prev = f_cur;
    }
}

/// Lane-mask vector of block diagonal `d` with every in-shape lane set —
/// the vector form of [`struct_mask`], precomputed so interior blocks load
/// their mask instead of rebuilding it per diagonal.
const fn struct_mask_lanes<const B: usize>(d: usize) -> [i16; B] {
    let mut out = [0i16; B];
    let mut l = 0;
    while l < B {
        if struct_mask(B, d) & (1u16 << l) != 0 {
            out[l] = -1;
        }
        l += 1;
    }
    out
}

/// All 15 structural lane-mask vectors of the default geometry,
/// diagonal-indexed.
static STRUCT_MASK_LANES: [[i16; BLOCK]; BLOCK_DIAGS] = {
    let mut out = [[0i16; BLOCK]; BLOCK_DIAGS];
    let mut d = 0;
    while d < BLOCK_DIAGS {
        out[d] = struct_mask_lanes::<BLOCK>(d);
        d += 1;
    }
    out
};

/// Single-lane selector vectors (`lane l == d+1`) of the default geometry,
/// used to pre-seed the north boundary of the next row into the
/// out-of-shape lane.
static SEED_MASK_LANES: [[i16; BLOCK]; BLOCK] = {
    let mut out = [[0i16; BLOCK]; BLOCK];
    let mut d = 0;
    while d < BLOCK {
        if d + 1 < BLOCK {
            out[d][d + 1] = -1;
        }
        d += 1;
    }
    out
};

/// All 31 structural lane-mask vectors of the wide (16×16) geometry.
static STRUCT_MASK_LANES_W: [[i16; MAX_BLOCK]; MAX_BLOCK_DIAGS] = {
    let mut out = [[0i16; MAX_BLOCK]; MAX_BLOCK_DIAGS];
    let mut d = 0;
    while d < MAX_BLOCK_DIAGS {
        out[d] = struct_mask_lanes::<MAX_BLOCK>(d);
        d += 1;
    }
    out
};

/// Single-lane selector vectors of the wide geometry (see
/// [`SEED_MASK_LANES`]).
static SEED_MASK_LANES_W: [[i16; MAX_BLOCK]; MAX_BLOCK] = {
    let mut out = [[0i16; MAX_BLOCK]; MAX_BLOCK];
    let mut d = 0;
    while d < MAX_BLOCK {
        if d + 1 < MAX_BLOCK {
            out[d][d + 1] = -1;
        }
        d += 1;
    }
    out
};

#[cfg(target_arch = "x86_64")]
mod sse41_i16 {
    use super::*;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Shift i16 lanes up by one (lane `l` ← lane `l-1`), injecting lane 7
    /// of `boundary` at lane 0. One `palignr` — the short loop-carried
    /// dependency that makes this tier faster than the i32 wavefront's
    /// permute+blend shift.
    #[inline(always)]
    unsafe fn shift_up(v: __m128i, boundary: __m128i) -> __m128i {
        _mm_alignr_epi8(v, boundary, 14)
    }

    /// Saturating-narrow one i32 boundary array to 8×i16 (exact on real
    /// values under the i16 gate; `-∞`-class values collapse into the
    /// sentinel band).
    #[inline(always)]
    unsafe fn pack_boundary(src: &[i32; BLOCK]) -> [i16; BLOCK] {
        let lo = _mm_loadu_si128(src.as_ptr().cast::<__m128i>());
        let hi = _mm_loadu_si128(src.as_ptr().add(4).cast::<__m128i>());
        let mut out = [0i16; BLOCK];
        _mm_storeu_si128(out.as_mut_ptr().cast::<__m128i>(), _mm_packs_epi32(lo, hi));
        out
    }

    #[inline(always)]
    unsafe fn store8(slot: &mut [i16; BLOCK], v: __m128i) {
        _mm_storeu_si128(slot.as_mut_ptr().cast::<__m128i>(), v);
    }

    #[inline(always)]
    unsafe fn load8(slot: &[i16; BLOCK]) -> __m128i {
        _mm_loadu_si128(slot.as_ptr().cast::<__m128i>())
    }

    /// [`fill`] compiled with SSE4.1 codegen — the minimum feature level
    /// the kernel needs, serving pre-AVX2 x86-64 at full vector speed.
    ///
    /// # Safety
    /// Requires SSE4.1 (checked by the caller).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "sse4.1")]
    pub(super) unsafe fn fill_sse41(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; BLOCK],
        qcodes: &[u8; BLOCK],
        corner: i32,
        west_h: &mut Boundary,
        west_e: &mut Boundary,
        north_h: &mut Boundary,
        north_f: &mut Boundary,
        cells: &mut BlockCells16,
    ) {
        fill(ctx, i0, j0, rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells);
    }

    /// [`fill`] compiled with AVX2 codegen: same 128-bit algorithm, but the
    /// VEX 3-operand encodings save the register-move traffic the legacy
    /// SSE destructive forms pay (measurably faster on AVX2 hosts).
    ///
    /// # Safety
    /// Requires AVX2 (checked by the caller).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill_avx2(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; BLOCK],
        qcodes: &[u8; BLOCK],
        corner: i32,
        west_h: &mut Boundary,
        west_e: &mut Boundary,
        north_h: &mut Boundary,
        north_f: &mut Boundary,
        cells: &mut BlockCells16,
    ) {
        fill(ctx, i0, j0, rcodes, qcodes, corner, west_h, west_e, north_h, north_f, cells);
    }

    /// 16-bit wavefront fill body (every intrinsic is SSE4.1 or older).
    /// Same algorithm as [`super::fill_portable_i16`], one 8×i16 vector per
    /// diagonal. `inline(always)` with no `target_feature` of its own so it
    /// is recompiled inside each feature wrapper above — never codegenned
    /// standalone.
    ///
    /// Boundary *outputs* are extracted after the diagonal loop (the loop
    /// stages them in `e_tmp`/`f_tmp` rows) so the hot loop never reloads
    /// data it just stored — scalar reads straight after a vector store
    /// cost a store-forward round trip per diagonal.
    ///
    /// # Safety
    /// Requires SSE4.1 (guaranteed by both wrappers).
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    unsafe fn fill(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; BLOCK],
        qcodes: &[u8; BLOCK],
        corner: i32,
        west_h: &mut Boundary,
        west_e: &mut Boundary,
        north_h: &mut Boundary,
        north_f: &mut Boundary,
        cells: &mut BlockCells16,
    ) {
        let sc = ctx.scoring;
        let oe = _mm_set1_epi16(to16(sc.gap_open + sc.gap_extend));
        let ext = _mm_set1_epi16(to16(sc.gap_extend));
        // Fixed-model compare/blend constants (zeroed and unused under a
        // matrix model, where per-diagonal rows replace them).
        let (f_match, f_mis, f_amb) = sc.model.fixed_params().unwrap_or((0, 0, 0));
        let v_match = _mm_set1_epi16(to16(f_match));
        let v_mis = _mm_set1_epi16(to16(-f_mis));
        let v_amb = _mm_set1_epi16(to16(-f_amb));
        let v_acgt_max = _mm_set1_epi16(i16::from(crate::Base::N.code()) - 1);
        let sub_rows =
            sc.model.matrix().map(|m| matrix_sub_lanes::<BLOCK>(ctx, m, j0, rcodes, qcodes));
        let neg_inf = _mm_set1_epi16(NEG_INF16);
        let lanes = _mm_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7);
        let interior = ctx.block_interior(i0, j0);

        let wh_in = pack_boundary(west_h);
        let we_in = pack_boundary(west_e);
        let nh_in = pack_boundary(north_h);
        let nf_in = pack_boundary(north_f);

        // Padded per-diagonal boundary injections (branch-free loop body):
        // lane-0 up/diag inputs for every diagonal, NEG_INF16 past the
        // block shape.
        let mut bh_pad = [NEG_INF16; BLOCK_DIAGS];
        let mut be_pad = [NEG_INF16; BLOCK_DIAGS];
        let mut bd_pad = [NEG_INF16; BLOCK_DIAGS];
        let mut q_pad = [0i16; BLOCK_DIAGS];
        bd_pad[0] = to16(corner);
        for d in 0..BLOCK {
            bh_pad[d] = wh_in[d];
            be_pad[d] = we_in[d];
            bd_pad[d + 1] = wh_in[d];
            q_pad[d] = i16::from(qcodes[d]);
        }

        let r_vec = _mm_setr_epi16(
            i16::from(rcodes[0]),
            i16::from(rcodes[1]),
            i16::from(rcodes[2]),
            i16::from(rcodes[3]),
            i16::from(rcodes[4]),
            i16::from(rcodes[5]),
            i16::from(rcodes[6]),
            i16::from(rcodes[7]),
        );
        let mut q_vec = _mm_setzero_si128();

        // "H_{-1}" / "F_{-1}": north seed of row 0 in lane 0.
        let mut h_prev = shift_up(neg_inf, _mm_set1_epi16(nh_in[0]));
        let mut f_prev = shift_up(neg_inf, _mm_set1_epi16(nf_in[0]));
        let mut e_prev = neg_inf;
        let mut h_prev2 = neg_inf;

        let mut e_tmp = [[0i16; BLOCK]; BLOCK];
        let mut f_tmp = [[0i16; BLOCK]; BLOCK];

        for d in 0..BLOCK_DIAGS {
            q_vec = shift_up(q_vec, _mm_set1_epi16(q_pad[d]));

            let up_h = shift_up(h_prev, _mm_set1_epi16(bh_pad[d]));
            let up_e = shift_up(e_prev, _mm_set1_epi16(be_pad[d]));
            let dg = shift_up(h_prev2, _mm_set1_epi16(bd_pad[d]));

            // Substitution: matrix rows when present, else the fixed-model
            // blend (ambiguous beats match beats mismatch).
            let sub = match &sub_rows {
                Some(rows) => load8(&rows[d]),
                None => {
                    let eq = _mm_cmpeq_epi16(r_vec, q_vec);
                    let amb = _mm_cmpgt_epi16(_mm_max_epi16(r_vec, q_vec), v_acgt_max);
                    _mm_blendv_epi8(_mm_blendv_epi8(v_mis, v_match, eq), v_amb, amb)
                }
            };

            let e = _mm_max_epi16(_mm_subs_epi16(up_h, oe), _mm_subs_epi16(up_e, ext));
            let f = _mm_max_epi16(_mm_subs_epi16(h_prev, oe), _mm_subs_epi16(f_prev, ext));
            let h = _mm_max_epi16(e, _mm_max_epi16(f, _mm_adds_epi16(dg, sub)));

            let (mask_bits, m) = if interior {
                (struct_mask(BLOCK, d), load8(&STRUCT_MASK_LANES[d]))
            } else {
                let bits = lane_mask(ctx, i0, j0, d);
                let v = if bits == 0 {
                    _mm_setzero_si128()
                } else {
                    // B=8 masks occupy the low 8 bits of the u16, so
                    // leading_zeros ≥ 8 and hi = 15 - lz ≤ 7.
                    let lo = bits.trailing_zeros() as i16;
                    let hi = 15 - bits.leading_zeros() as i16;
                    let ge = _mm_cmpgt_epi16(lanes, _mm_set1_epi16(lo - 1));
                    let le = _mm_cmpgt_epi16(_mm_set1_epi16(hi + 1), lanes);
                    _mm_and_si128(ge, le)
                };
                (bits, v)
            };
            let mut h_m = _mm_blendv_epi8(neg_inf, h, m);
            let e_m = _mm_blendv_epi8(neg_inf, e, m);
            let mut f_m = _mm_blendv_epi8(neg_inf, f, m);

            store8(&mut cells.h[d], h_m);
            cells.mask[d] = mask_bits;

            if d >= BLOCK - 1 {
                let k = d - (BLOCK - 1);
                store8(&mut e_tmp[k], e_m);
                store8(&mut f_tmp[k], f_m);
            }

            if d + 1 < BLOCK {
                // Pre-seed the next row's north boundary into lane d+1.
                let seed = load8(&SEED_MASK_LANES[d]);
                h_m = _mm_blendv_epi8(h_m, _mm_set1_epi16(nh_in[d + 1]), seed);
                f_m = _mm_blendv_epi8(f_m, _mm_set1_epi16(nf_in[d + 1]), seed);
            }

            h_prev2 = h_prev;
            h_prev = h_m;
            e_prev = e_m;
            f_prev = f_m;
        }

        // Boundary outputs, extracted once the stores have drained: lane 7
        // of diagonal 7+k is the block's last row (west output for column
        // k); lane k of diagonal k+7 is the last column (north output for
        // row k).
        for k in 0..BLOCK {
            west_h[k] = i32::from(cells.h[k + BLOCK - 1][BLOCK - 1]);
            west_e[k] = i32::from(e_tmp[k][BLOCK - 1]);
            north_h[k] = i32::from(cells.h[k + BLOCK - 1][k]);
            north_f[k] = i32::from(f_tmp[k][k]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use super::*;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Shift lanes up by one (lane `l` ← lane `l-1`), injecting `boundary`
    /// at lane 0.
    #[inline(always)]
    unsafe fn shift_up(v: __m256i, boundary: i32) -> __m256i {
        let idx = _mm256_setr_epi32(0, 0, 1, 2, 3, 4, 5, 6);
        let s = _mm256_permutevar8x32_epi32(v, idx);
        _mm256_blend_epi32(s, _mm256_set1_epi32(boundary), 0x01)
    }

    /// Lane-range mask vector: all-ones in lanes `lo..=hi`.
    #[inline(always)]
    unsafe fn range_mask(lanes: __m256i, lo: i32, hi: i32) -> __m256i {
        let ge = _mm256_cmpgt_epi32(lanes, _mm256_set1_epi32(lo - 1));
        let le = _mm256_cmpgt_epi32(_mm256_set1_epi32(hi + 1), lanes);
        _mm256_and_si256(ge, le)
    }

    #[inline(always)]
    unsafe fn store8(slot: &mut [i32; BLOCK], v: __m256i) {
        _mm256_storeu_si256(slot.as_mut_ptr().cast::<__m256i>(), v);
    }

    /// AVX2 wavefront fill. Same algorithm as [`super::fill_portable`], one
    /// 8×i32 vector per diagonal.
    ///
    /// # Safety
    /// Requires AVX2 (checked by the caller).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; BLOCK],
        qcodes: &[u8; BLOCK],
        corner: i32,
        west_h: &mut Boundary,
        west_e: &mut Boundary,
        north_h: &mut Boundary,
        north_f: &mut Boundary,
        cells: &mut BlockCells,
    ) {
        let sc = ctx.scoring;
        let oe = _mm256_set1_epi32(sc.gap_open + sc.gap_extend);
        let ext = _mm256_set1_epi32(sc.gap_extend);
        // Fixed-model compare/blend constants (zeroed and unused under a
        // matrix model, where per-diagonal rows replace them).
        let (f_match, f_mis, f_amb) = sc.model.fixed_params().unwrap_or((0, 0, 0));
        let v_match = _mm256_set1_epi32(f_match);
        let v_mis = _mm256_set1_epi32(-f_mis);
        let v_amb = _mm256_set1_epi32(-f_amb);
        let v_acgt_max = _mm256_set1_epi32(i32::from(crate::Base::N.code()) - 1);
        let sub_rows =
            sc.model.matrix().map(|m| matrix_sub_lanes::<BLOCK>(ctx, m, j0, rcodes, qcodes));
        let neg_inf = _mm256_set1_epi32(NEG_INF);
        let lanes = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        let interior = ctx.block_interior(i0, j0);

        let wh_in = *west_h;
        let we_in = *west_e;
        let nh_in = *north_h;
        let nf_in = *north_f;

        // Reference codes are fixed per lane; the query codes slide one lane
        // per diagonal (lane l of diagonal d reads qcodes[d-l]).
        let r_vec = _mm256_setr_epi32(
            i32::from(rcodes[0]),
            i32::from(rcodes[1]),
            i32::from(rcodes[2]),
            i32::from(rcodes[3]),
            i32::from(rcodes[4]),
            i32::from(rcodes[5]),
            i32::from(rcodes[6]),
            i32::from(rcodes[7]),
        );
        let mut q_vec = _mm256_setzero_si256();

        let mut h_prev = shift_up(neg_inf, nh_in[0]); // "H_{-1}": north seed in lane 0
        let mut f_prev = shift_up(neg_inf, nf_in[0]);
        let mut e_prev = neg_inf;
        let mut h_prev2 = neg_inf;

        let mut e_tmp = [0i32; BLOCK];
        let mut f_tmp = [0i32; BLOCK];

        for d in 0..BLOCK_DIAGS {
            let bh = if d < BLOCK { wh_in[d] } else { NEG_INF };
            let be = if d < BLOCK { we_in[d] } else { NEG_INF };
            let bd = if d == 0 {
                corner
            } else if d <= BLOCK {
                wh_in[d - 1]
            } else {
                NEG_INF
            };

            q_vec = shift_up(q_vec, if d < BLOCK { i32::from(qcodes[d]) } else { 0 });

            let up_h = shift_up(h_prev, bh);
            let up_e = shift_up(e_prev, be);
            let dg = shift_up(h_prev2, bd);

            // Substitution: matrix rows (sign-extended i16 → i32) when
            // present, else the fixed-model blend (ambiguous beats match
            // beats mismatch).
            let sub = match &sub_rows {
                Some(rows) => {
                    _mm256_cvtepi16_epi32(_mm_loadu_si128(rows[d].as_ptr().cast::<__m128i>()))
                }
                None => {
                    let eq = _mm256_cmpeq_epi32(r_vec, q_vec);
                    let amb = _mm256_cmpgt_epi32(_mm256_max_epi32(r_vec, q_vec), v_acgt_max);
                    _mm256_blendv_epi8(_mm256_blendv_epi8(v_mis, v_match, eq), v_amb, amb)
                }
            };

            let e = _mm256_max_epi32(_mm256_sub_epi32(up_h, oe), _mm256_sub_epi32(up_e, ext));
            let f = _mm256_max_epi32(_mm256_sub_epi32(h_prev, oe), _mm256_sub_epi32(f_prev, ext));
            let h = _mm256_max_epi32(e, _mm256_max_epi32(f, _mm256_add_epi32(dg, sub)));

            let mask_bits =
                if interior { struct_mask(BLOCK, d) } else { lane_mask(ctx, i0, j0, d) };
            let m = if mask_bits == 0 {
                _mm256_setzero_si256()
            } else {
                // B=8 masks occupy the low 8 bits, so hi = 15 - lz ≤ 7.
                let lo = mask_bits.trailing_zeros() as i32;
                let hi = 15 - mask_bits.leading_zeros() as i32;
                range_mask(lanes, lo, hi)
            };
            let mut h_m = _mm256_blendv_epi8(neg_inf, h, m);
            let e_m = _mm256_blendv_epi8(neg_inf, e, m);
            let mut f_m = _mm256_blendv_epi8(neg_inf, f, m);

            store8(&mut cells.h[d], h_m);
            cells.mask[d] = mask_bits;

            if d >= BLOCK - 1 {
                store8(&mut e_tmp, e_m);
                store8(&mut f_tmp, f_m);
                let k = d - (BLOCK - 1);
                west_h[k] = cells.h[d][BLOCK - 1];
                west_e[k] = e_tmp[BLOCK - 1];
                north_h[k] = cells.h[d][k];
                north_f[k] = f_tmp[k];
            }

            if d + 1 < BLOCK {
                // Pre-seed the next row's north boundary into lane d+1.
                let seed = _mm256_cmpeq_epi32(lanes, _mm256_set1_epi32(d as i32 + 1));
                h_m = _mm256_blendv_epi8(h_m, _mm256_set1_epi32(nh_in[d + 1]), seed);
                f_m = _mm256_blendv_epi8(f_m, _mm256_set1_epi32(nf_in[d + 1]), seed);
            }

            h_prev2 = h_prev;
            h_prev = h_m;
            e_prev = e_m;
            f_prev = f_m;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx2_i16w {
    //! The wide-geometry (16×16) i16 kernel: one full 16×i16 AVX2 vector
    //! per block anti-diagonal — the geometry that motivates the whole
    //! parameterization. Same algorithm as [`super::fill_portable_i16`] at
    //! `B = 16`; the only genuinely new machinery is the cross-128-bit-lane
    //! `shift_up` and the qword-interleave fix in `pack_boundary` (AVX2's
    //! in-lane instruction heritage makes both non-obvious, hence the
    //! layout notes on each).

    use super::*;
    use crate::block::BlockCells16Wide;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    const B: usize = MAX_BLOCK;
    const DIAGS: usize = 2 * B - 1;

    /// Shift 16 i16 lanes up by one across the 128-bit halves, injecting
    /// `boundary` at lane 0.
    ///
    /// `_mm256_alignr_epi8` concatenates per 128-bit half, so the carry
    /// operand must hold — in byte position 14..16 of each half — the value
    /// entering that half's lane 0: `boundary` for the low half, `v`'s
    /// lane 7 for the high half. `_mm256_permute2x128_si256(set1(boundary),
    /// v, 0x20)` builds exactly that: `[set1(boundary)_lo | v_lo]`.
    #[inline(always)]
    unsafe fn shift_up(v: __m256i, boundary: i16) -> __m256i {
        let carry = _mm256_permute2x128_si256(_mm256_set1_epi16(boundary), v, 0x20);
        _mm256_alignr_epi8(v, carry, 14)
    }

    /// Saturating-narrow one 16×i32 boundary array to 16×i16.
    ///
    /// `_mm256_packs_epi32(a, b)` interleaves per 128-bit half (qwords come
    /// out as `a0..3, b0..3, a4..7, b4..7`); the `permute4x64` with
    /// selector `0b11011000` (qword order 0,2,1,3) restores source order.
    #[inline(always)]
    unsafe fn pack_boundary(src: &[i32; B]) -> [i16; B] {
        let a = _mm256_loadu_si256(src.as_ptr().cast::<__m256i>());
        let b = _mm256_loadu_si256(src.as_ptr().add(8).cast::<__m256i>());
        let packed = _mm256_packs_epi32(a, b);
        let fixed = _mm256_permute4x64_epi64(packed, 0b11011000);
        let mut out = [0i16; B];
        _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), fixed);
        out
    }

    #[inline(always)]
    unsafe fn store16(slot: &mut [i16; B], v: __m256i) {
        _mm256_storeu_si256(slot.as_mut_ptr().cast::<__m256i>(), v);
    }

    #[inline(always)]
    unsafe fn load16(slot: &[i16; B]) -> __m256i {
        _mm256_loadu_si256(slot.as_ptr().cast::<__m256i>())
    }

    /// Wide 16-bit wavefront fill: one 16×i16 AVX2 vector per diagonal,
    /// 31 diagonals per block. Boundary outputs are staged in
    /// `e_tmp`/`f_tmp` and extracted after the loop, exactly as in the
    /// B=8 kernel (see [`super::sse41_i16::fill_sse41`]).
    ///
    /// # Safety
    /// Requires AVX2 (checked by the caller).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn fill(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; B],
        qcodes: &[u8; B],
        corner: i32,
        west_h: &mut [i32; B],
        west_e: &mut [i32; B],
        north_h: &mut [i32; B],
        north_f: &mut [i32; B],
        cells: &mut BlockCells16Wide,
    ) {
        let sc = ctx.scoring;
        let oe = _mm256_set1_epi16(to16(sc.gap_open + sc.gap_extend));
        let ext = _mm256_set1_epi16(to16(sc.gap_extend));
        // Fixed-model compare/blend constants (zeroed and unused under a
        // matrix model, where per-diagonal rows replace them).
        let (f_match, f_mis, f_amb) = sc.model.fixed_params().unwrap_or((0, 0, 0));
        let v_match = _mm256_set1_epi16(to16(f_match));
        let v_mis = _mm256_set1_epi16(to16(-f_mis));
        let v_amb = _mm256_set1_epi16(to16(-f_amb));
        let v_acgt_max = _mm256_set1_epi16(i16::from(crate::Base::N.code()) - 1);
        let sub_rows = sc.model.matrix().map(|m| matrix_sub_lanes::<B>(ctx, m, j0, rcodes, qcodes));
        let neg_inf = _mm256_set1_epi16(NEG_INF16);
        let lanes = _mm256_setr_epi16(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let interior = ctx.block_interior(i0, j0);

        let wh_in = pack_boundary(west_h);
        let we_in = pack_boundary(west_e);
        let nh_in = pack_boundary(north_h);
        let nf_in = pack_boundary(north_f);

        // Padded per-diagonal boundary injections (branch-free loop body).
        let mut bh_pad = [NEG_INF16; DIAGS];
        let mut be_pad = [NEG_INF16; DIAGS];
        let mut bd_pad = [NEG_INF16; DIAGS];
        let mut q_pad = [0i16; DIAGS];
        bd_pad[0] = to16(corner);
        for d in 0..B {
            bh_pad[d] = wh_in[d];
            be_pad[d] = we_in[d];
            bd_pad[d + 1] = wh_in[d];
            q_pad[d] = i16::from(qcodes[d]);
        }

        let mut r16 = [0i16; B];
        for (slot, &c) in r16.iter_mut().zip(rcodes.iter()) {
            *slot = i16::from(c);
        }
        let r_vec = load16(&r16);
        let mut q_vec = _mm256_setzero_si256();

        // "H_{-1}" / "F_{-1}": north seed of row 0 in lane 0.
        let mut h_prev = shift_up(neg_inf, nh_in[0]);
        let mut f_prev = shift_up(neg_inf, nf_in[0]);
        let mut e_prev = neg_inf;
        let mut h_prev2 = neg_inf;

        let mut e_tmp = [[0i16; B]; B];
        let mut f_tmp = [[0i16; B]; B];

        for d in 0..DIAGS {
            q_vec = shift_up(q_vec, q_pad[d]);

            let up_h = shift_up(h_prev, bh_pad[d]);
            let up_e = shift_up(e_prev, be_pad[d]);
            let dg = shift_up(h_prev2, bd_pad[d]);

            // Substitution: matrix rows when present, else the fixed-model
            // blend (ambiguous beats match beats mismatch).
            let sub = match &sub_rows {
                Some(rows) => load16(&rows[d]),
                None => {
                    let eq = _mm256_cmpeq_epi16(r_vec, q_vec);
                    let amb = _mm256_cmpgt_epi16(_mm256_max_epi16(r_vec, q_vec), v_acgt_max);
                    _mm256_blendv_epi8(_mm256_blendv_epi8(v_mis, v_match, eq), v_amb, amb)
                }
            };

            let e = _mm256_max_epi16(_mm256_subs_epi16(up_h, oe), _mm256_subs_epi16(up_e, ext));
            let f = _mm256_max_epi16(_mm256_subs_epi16(h_prev, oe), _mm256_subs_epi16(f_prev, ext));
            let h = _mm256_max_epi16(e, _mm256_max_epi16(f, _mm256_adds_epi16(dg, sub)));

            let (mask_bits, m) = if interior {
                (struct_mask(B, d), load16(&STRUCT_MASK_LANES_W[d]))
            } else {
                let bits = lane_mask(ctx, i0, j0, d);
                let v = if bits == 0 {
                    _mm256_setzero_si256()
                } else {
                    let lo = bits.trailing_zeros() as i16;
                    let hi = 15 - bits.leading_zeros() as i16;
                    let ge = _mm256_cmpgt_epi16(lanes, _mm256_set1_epi16(lo - 1));
                    let le = _mm256_cmpgt_epi16(_mm256_set1_epi16(hi + 1), lanes);
                    _mm256_and_si256(ge, le)
                };
                (bits, v)
            };
            let mut h_m = _mm256_blendv_epi8(neg_inf, h, m);
            let e_m = _mm256_blendv_epi8(neg_inf, e, m);
            let mut f_m = _mm256_blendv_epi8(neg_inf, f, m);

            store16(&mut cells.h[d], h_m);
            cells.mask[d] = mask_bits;

            if d >= B - 1 {
                let k = d - (B - 1);
                store16(&mut e_tmp[k], e_m);
                store16(&mut f_tmp[k], f_m);
            }

            if d + 1 < B {
                // Pre-seed the next row's north boundary into lane d+1.
                let seed = load16(&SEED_MASK_LANES_W[d]);
                h_m = _mm256_blendv_epi8(h_m, _mm256_set1_epi16(nh_in[d + 1]), seed);
                f_m = _mm256_blendv_epi8(f_m, _mm256_set1_epi16(nf_in[d + 1]), seed);
            }

            h_prev2 = h_prev;
            h_prev = h_m;
            e_prev = e_m;
            f_prev = f_m;
        }

        // Boundary outputs, extracted once the stores have drained.
        for k in 0..B {
            west_h[k] = i32::from(cells.h[k + B - 1][B - 1]);
            west_e[k] = i32::from(e_tmp[k][B - 1]);
            north_h[k] = i32::from(cells.h[k + B - 1][k]);
            north_f[k] = i32::from(f_tmp[k][k]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512_i16w {
    //! The wide-geometry (16×16) i16 kernel at the AVX-512BW/VL level.
    //! Same per-diagonal algorithm as [`super::avx2_i16w`] (one 16×i16 ymm
    //! per block anti-diagonal), restated with the machinery AVX-512 adds:
    //!
    //! * every lane select runs off a `__mmask16` **mask register** — the
    //!   staged `mask_bits` word *is* the mask operand, so the blend-based
    //!   edge handling (per-diagonal mask-vector builds, `blendv` chains,
    //!   the static mask LUT loads) disappears entirely;
    //! * on *interior* blocks only the stored H row is masked at all:
    //!   the block shape grows one lane per diagonal, so out-of-shape
    //!   lanes never shift into valid ones and E/F/H state propagates
    //!   unmasked (edge blocks keep full masking — band clipping is
    //!   semantic there);
    //! * the diagonal input `dg` is last row's up-shifted H verbatim
    //!   (`bd_pad[d] == bh_pad[d-1]`), carried across iterations — one
    //!   whole shift per diagonal gone from the loop-carried critical
    //!   path;
    //! * the north-boundary pre-seed is a single masked broadcast
    //!   (`vpbroadcastw` with a one-hot mask) instead of LUT-load + blend;
    //! * boundary narrowing is one `vpmovsdw` (`_mm512_cvtsepi32_epi16`)
    //!   per array instead of the packs + qword-permute fix;
    //! * consecutive block diagonals are **fused pairwise into zmm
    //!   stores**: the `d-1`/`d-2` loop-carried dependency forces the
    //!   arithmetic to stay sequential per diagonal, but two finished
    //!   16-lane rows are exactly one zmm, so the staging-buffer traffic
    //!   runs at 512-bit width (one store per diagonal pair).

    use super::*;
    use crate::block::BlockCells16Wide;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    const B: usize = MAX_BLOCK;
    const DIAGS: usize = 2 * B - 1;

    /// Shift 16 i16 lanes up by one (lane `l` ← lane `l-1`), injecting
    /// `boundary` at lane 0.
    ///
    /// Same `permute2x128` + `alignr` sequence as [`super::avx2_i16w`]
    /// (see the layout note there), *not* a cross-lane `vpermw`: the shift
    /// sits on the wavefront's loop-carried dependency chain, and the
    /// boundary broadcast folds into the carry build off-chain here,
    /// whereas `vpermw` + a lane-0-masked broadcast stacks both on the
    /// chain (measurably slower per diagonal on Skylake-X/Ice Lake).
    #[inline(always)]
    unsafe fn shift_up(v: __m256i, boundary: i16) -> __m256i {
        let carry = _mm256_permute2x128_si256(_mm256_set1_epi16(boundary), v, 0x20);
        _mm256_alignr_epi8(v, carry, 14)
    }

    /// Saturating-narrow one 16×i32 boundary array to 16×i16: a single
    /// `vpmovsdw` from the full zmm (the AVX2 kernel needs packs plus a
    /// qword permute to undo the in-lane interleave).
    #[inline(always)]
    unsafe fn pack_boundary(src: &[i32; B]) -> [i16; B] {
        let v = _mm512_loadu_epi32(src.as_ptr());
        let mut out = [0i16; B];
        _mm256_storeu_si256(out.as_mut_ptr().cast::<__m256i>(), _mm512_cvtsepi32_epi16(v));
        out
    }

    #[inline(always)]
    unsafe fn store16(slot: &mut [i16; B], v: __m256i) {
        _mm256_storeu_si256(slot.as_mut_ptr().cast::<__m256i>(), v);
    }

    #[inline(always)]
    unsafe fn load16(slot: &[i16; B]) -> __m256i {
        _mm256_loadu_si256(slot.as_ptr().cast::<__m256i>())
    }

    /// Fused dual-diagonal store: rows `d` and `d+1` of the staging buffer
    /// are contiguous 16×i16 rows, i.e. exactly one zmm.
    #[inline(always)]
    unsafe fn store_pair(cells: &mut BlockCells16Wide, d: usize, lo: __m256i, hi: __m256i) {
        debug_assert!(d + 1 < MAX_BLOCK_DIAGS);
        let z = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi);
        _mm512_storeu_epi16(cells.h[d].as_mut_ptr(), z);
    }

    /// All `2B−1` valid-lane masks of one *edge* block in two 16-diagonal
    /// vector steps — bit-identical to calling [`super::lane_mask`] per
    /// diagonal, which costs ~31 branchy scalar range computations and is
    /// the dominant per-diagonal overhead of edge blocks (under a short
    /// band a large fraction of blocks are edge blocks, so this shows up
    /// at task level, not just in corner cases).
    ///
    /// [`BlockCtx::lane_range`]'s four lower and four upper bounds are all
    /// affine in `d`, so 16 diagonals evaluate as one `max`/`min` ladder
    /// over an i32 lane vector. The i64 geometry terms are pre-clamped to
    /// `±64` scalars first: every term is only ever compared against the
    /// in-block range `[0, B−1]`, so any value beyond `±64` acts exactly
    /// like `±64` (still never/always binding), keeping the i32 lanes
    /// exact. Empty diagonals (`lo > hi`, including everything the clamps
    /// pushed out of range) zero their mask through the `nonempty`
    /// mask-register; `vpsllvd` yields 0 for any shift count ≥ 32, so the
    /// out-of-range `lo`/`hi` lanes cannot leak bits into live ones.
    ///
    /// `inline(always)` with no `target_feature` of its own so it compiles
    /// at the caller's AVX-512 feature level (same pattern as the tracker's
    /// shared fold).
    #[inline(always)]
    unsafe fn edge_masks(ctx: &BlockCtx<'_>, i0: i64, j0: i64) -> [u16; 32] {
        let off = i0 - j0;
        let mq = (ctx.m - 1 - j0).min(63) as i32;
        let ni = (ctx.n - 1 - i0).min(63) as i32;
        // `lo` band term: ceil((d − w − off) / 2) = (d + (1 − w − off)) >> 1.
        let t_lo = (1 - ctx.w - off).clamp(-64, 64) as i32;
        // `hi` band term: floor((d + w − off) / 2) = (d + (w − off)) >> 1.
        let t_hi = (ctx.w - off).clamp(-64, 64) as i32;
        let lanes = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let one = _mm512_set1_epi32(1);
        let mut out = [0u16; 32];
        for chunk in 0..2usize {
            let d = _mm512_add_epi32(lanes, _mm512_set1_epi32(chunk as i32 * 16));
            let lo = _mm512_max_epi32(
                _mm512_max_epi32(
                    _mm512_setzero_si512(),
                    _mm512_sub_epi32(d, _mm512_set1_epi32(B as i32 - 1)),
                ),
                _mm512_max_epi32(
                    _mm512_sub_epi32(d, _mm512_set1_epi32(mq)),
                    _mm512_srai_epi32::<1>(_mm512_add_epi32(d, _mm512_set1_epi32(t_lo))),
                ),
            );
            let hi = _mm512_min_epi32(
                _mm512_min_epi32(_mm512_set1_epi32(B as i32 - 1), d),
                _mm512_min_epi32(
                    _mm512_set1_epi32(ni),
                    _mm512_srai_epi32::<1>(_mm512_add_epi32(d, _mm512_set1_epi32(t_hi))),
                ),
            );
            let nonempty = _mm512_cmple_epi32_mask(lo, hi);
            // ((1 << (hi+1)) − (1 << lo)) — the contiguous run lo..=hi.
            let bits = _mm512_maskz_sub_epi32(
                nonempty,
                _mm512_sllv_epi32(one, _mm512_add_epi32(hi, one)),
                _mm512_sllv_epi32(one, lo),
            );
            _mm256_storeu_si256(
                out.as_mut_ptr().add(chunk * 16).cast::<__m256i>(),
                _mm512_cvtepi32_epi16(bits),
            );
        }
        #[cfg(debug_assertions)]
        for (d, &m) in out.iter().enumerate().take(DIAGS) {
            debug_assert_eq!(
                m,
                lane_mask(ctx, i0, j0, d),
                "vector edge mask diverged at d = {d} (block {i0},{j0})"
            );
        }
        out
    }

    /// Wide 16-bit wavefront fill, AVX-512BW/VL edition: mask-register
    /// lane selects, one `vpermw` shift per input, and pairwise-fused zmm
    /// stores of finished diagonals. Bit-identical to
    /// [`super::avx2_i16w::fill`] / [`super::fill_portable_i16`] — the
    /// arithmetic is the same saturating i16 wavefront; only the lane
    /// bookkeeping changed instruction sets.
    ///
    /// # Safety
    /// Requires AVX-512BW and AVX-512VL (checked by the caller).
    #[allow(clippy::too_many_arguments)]
    // The tail diag_body! expansion rotates the wavefront state one last
    // time into assignments nothing reads.
    #[allow(unused_assignments)]
    #[target_feature(enable = "avx512bw,avx512vl")]
    pub(super) unsafe fn fill(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; B],
        qcodes: &[u8; B],
        corner: i32,
        west_h: &mut [i32; B],
        west_e: &mut [i32; B],
        north_h: &mut [i32; B],
        north_f: &mut [i32; B],
        cells: &mut BlockCells16Wide,
    ) {
        let sc = ctx.scoring;
        let oe = _mm256_set1_epi16(to16(sc.gap_open + sc.gap_extend));
        let ext = _mm256_set1_epi16(to16(sc.gap_extend));
        // Fixed-model compare/blend constants (zeroed and unused under a
        // matrix model, where per-diagonal rows replace them).
        let (f_match, f_mis, f_amb) = sc.model.fixed_params().unwrap_or((0, 0, 0));
        let v_match = _mm256_set1_epi16(to16(f_match));
        let v_mis = _mm256_set1_epi16(to16(-f_mis));
        let v_amb = _mm256_set1_epi16(to16(-f_amb));
        let v_acgt_max = _mm256_set1_epi16(i16::from(crate::Base::N.code()) - 1);
        let sub_rows = sc.model.matrix().map(|m| matrix_sub_lanes::<B>(ctx, m, j0, rcodes, qcodes));
        let neg_inf = _mm256_set1_epi16(NEG_INF16);
        let interior = ctx.block_interior(i0, j0);
        // Edge blocks get all their lane masks batch-computed up front (two
        // vector steps); interior masks are the compile-time struct shapes.
        let em: [u16; 32] = if interior { [0; 32] } else { edge_masks(ctx, i0, j0) };

        let wh_in = pack_boundary(west_h);
        let we_in = pack_boundary(west_e);
        let nh_in = pack_boundary(north_h);
        let nf_in = pack_boundary(north_f);

        // Padded per-diagonal boundary injections (branch-free loop body).
        // No `bd_pad`: the diagonal input is carried (see `dg_carry`), and
        // no `q_pad`: the query slides via `qrev` loads below.
        let mut bh_pad = [NEG_INF16; DIAGS];
        let mut be_pad = [NEG_INF16; DIAGS];
        bh_pad[..B].copy_from_slice(&wh_in);
        be_pad[..B].copy_from_slice(&we_in);

        let mut r16 = [0i16; B];
        for (slot, &c) in r16.iter_mut().zip(rcodes.iter()) {
            *slot = i16::from(c);
        }
        let r_vec = load16(&r16);

        // Sliding query codes without a shift: lane l of diagonal d reads
        // qcodes[d - l] — a 16-lane window *descending* in memory — so a
        // reversed, zero-padded copy turns the per-diagonal cross-lane
        // shift (two port-5 uops on the wavefront's critical path) into
        // one unaligned load: qrev[QREV_C - k] = qcodes[k], and diagonal
        // d's vector is the 16 lanes starting at qrev[QREV_C - d]. The
        // padding reads as code 0 exactly like the zeros the shift-based
        // scheme injects, so every lane — in-shape or not — is identical.
        const QREV_C: usize = 2 * B - 2;
        let mut qrev = [0i16; 3 * B - 1];
        for (j, &c) in qcodes.iter().enumerate() {
            qrev[QREV_C - j] = i16::from(c);
        }

        // "H_{-1}" / "F_{-1}": north seed of row 0 in lane 0.
        let mut h_prev = shift_up(neg_inf, nh_in[0]);
        let mut f_prev = shift_up(neg_inf, nf_in[0]);
        let mut e_prev = neg_inf;
        // The padded boundary scheme makes `bd_pad[d] == bh_pad[d - 1]`,
        // so row d's diagonal input is *exactly* last row's up-shifted H:
        // carrying `up_h` across iterations replaces one shift per
        // diagonal (the shifts sit on the loop-carried critical path, so
        // this is latency off every row, not just throughput). Seeded with
        // the corner shift for d = 0.
        let mut dg_carry = shift_up(neg_inf, to16(corner));

        let mut e_tmp = [[0i16; B]; B];
        let mut f_tmp = [[0i16; B]; B];

        // One diagonal's arithmetic + bookkeeping, *deferring the `cells.h`
        // store* so the pair loop below can fuse two finished rows into one
        // zmm store. Yields the masked (unseeded) H row; rotates the
        // wavefront state with the seeded copy.
        macro_rules! diag_body {
            ($d:expr) => {{
                let d: usize = $d;
                let q_vec = _mm256_loadu_si256(qrev.as_ptr().add(QREV_C - d).cast::<__m256i>());

                let up_h = shift_up(h_prev, bh_pad[d]);
                let up_e = shift_up(e_prev, be_pad[d]);
                let dg = dg_carry;
                dg_carry = up_h;

                // Substitution: matrix rows when present, else the
                // fixed-model select (ambiguous beats match beats
                // mismatch), on mask registers.
                let sub = match &sub_rows {
                    Some(rows) => load16(&rows[d]),
                    None => {
                        let eq = _mm256_cmpeq_epi16_mask(r_vec, q_vec);
                        let amb =
                            _mm256_cmpgt_epi16_mask(_mm256_max_epi16(r_vec, q_vec), v_acgt_max);
                        _mm256_mask_blend_epi16(
                            amb,
                            _mm256_mask_blend_epi16(eq, v_mis, v_match),
                            v_amb,
                        )
                    }
                };

                let e = _mm256_max_epi16(_mm256_subs_epi16(up_h, oe), _mm256_subs_epi16(up_e, ext));
                let f =
                    _mm256_max_epi16(_mm256_subs_epi16(h_prev, oe), _mm256_subs_epi16(f_prev, ext));
                let h = _mm256_max_epi16(e, _mm256_max_epi16(f, _mm256_adds_epi16(dg, sub)));

                // The staged mask word *is* the AVX-512 mask operand — no
                // vector mask build on either the interior or edge path.
                let mask_bits = if interior { struct_mask(B, d) } else { em[d] };
                cells.mask[d] = mask_bits;
                // Only the *stored* H row needs masking on interior blocks:
                // the shape grows exactly one lane per diagonal, so an
                // out-of-shape lane never shifts into a valid lane, and the
                // boundary stages are read only at in-shape lanes — E/F/H
                // state propagates unmasked. Edge blocks mask all three:
                // band/table clipping is semantic there (a clipped lane
                // must read as -inf from its in-band neighbour).
                let h_m = _mm256_mask_blend_epi16(mask_bits, neg_inf, h);
                let (e_s, h_s, mut f_s) = if interior {
                    (e, h, f)
                } else {
                    (
                        _mm256_mask_blend_epi16(mask_bits, neg_inf, e),
                        h_m,
                        _mm256_mask_blend_epi16(mask_bits, neg_inf, f),
                    )
                };

                if d >= B - 1 {
                    let k = d - (B - 1);
                    store16(&mut e_tmp[k], e_s);
                    store16(&mut f_tmp[k], f_s);
                }

                let mut h_seeded = h_s;
                if d + 1 < B {
                    // Pre-seed the next row's north boundary into lane d+1:
                    // one masked broadcast.
                    let one_hot = 1u16 << (d + 1);
                    h_seeded = _mm256_mask_set1_epi16(h_s, one_hot, nh_in[d + 1]);
                    f_s = _mm256_mask_set1_epi16(f_s, one_hot, nf_in[d + 1]);
                }

                h_prev = h_seeded;
                e_prev = e_s;
                f_prev = f_s;
                h_m
            }};
        }

        // Pairwise diagonal walk: 15 fused zmm stores + 1 tail ymm store
        // cover all 31 rows.
        let mut d = 0;
        while d + 1 < DIAGS {
            let row_a = diag_body!(d);
            let row_b = diag_body!(d + 1);
            store_pair(cells, d, row_a, row_b);
            d += 2;
        }
        let row_last = diag_body!(DIAGS - 1);
        store16(&mut cells.h[DIAGS - 1], row_last);

        // Boundary outputs, extracted once the stores have drained.
        for k in 0..B {
            west_h[k] = i32::from(cells.h[k + B - 1][B - 1]);
            west_e[k] = i32::from(e_tmp[k][B - 1]);
            north_h[k] = i32::from(cells.h[k + B - 1][k]);
            north_f[k] = i32::from(f_tmp[k][k]);
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod avx512_i32w {
    //! The wide-geometry (16×16) **i32** kernel: 16 × i32 = one full zmm,
    //! so AVX-512F gives the wide tile a full-width i32 fill that AVX2
    //! structurally cannot (its i32 vectors are full at 8 lanes). Serves
    //! tasks outside the i16 gate that run at B=16 — forced wide geometry,
    //! and per-task i16→i32 demotions inside a wide-geometry stream. Same
    //! algorithm as [`super::avx2::fill`] at twice the lane count, with
    //! mask-register lane selects throughout.

    use super::*;
    use crate::block::BlockCellsWide;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    const B: usize = MAX_BLOCK;
    const DIAGS: usize = 2 * B - 1;

    /// Shift 16 i32 lanes up by one (lane `l` ← lane `l-1`), injecting
    /// `boundary` at lane 0: one `valignd` off a broadcast carry.
    #[inline(always)]
    unsafe fn shift_up(v: __m512i, boundary: i32) -> __m512i {
        _mm512_alignr_epi32::<15>(v, _mm512_set1_epi32(boundary))
    }

    #[inline(always)]
    unsafe fn store16(slot: &mut [i32; B], v: __m512i) {
        _mm512_storeu_epi32(slot.as_mut_ptr(), v);
    }

    #[inline(always)]
    unsafe fn load16(slot: &[i32; B]) -> __m512i {
        _mm512_loadu_epi32(slot.as_ptr())
    }

    /// Wide i32 wavefront fill: one 16×i32 zmm per diagonal, 31 diagonals
    /// per block. Bit-identical to [`super::fill_portable`] at the same
    /// geometry (same inputs, same integer ops, no reassociation).
    ///
    /// # Safety
    /// Requires AVX-512F (checked by the caller).
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn fill(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; B],
        qcodes: &[u8; B],
        corner: i32,
        west_h: &mut [i32; B],
        west_e: &mut [i32; B],
        north_h: &mut [i32; B],
        north_f: &mut [i32; B],
        cells: &mut BlockCellsWide,
    ) {
        let sc = ctx.scoring;
        let oe = _mm512_set1_epi32(sc.gap_open + sc.gap_extend);
        let ext = _mm512_set1_epi32(sc.gap_extend);
        // Fixed-model select constants (zeroed and unused under a matrix
        // model, where per-diagonal rows replace them).
        let (f_match, f_mis, f_amb) = sc.model.fixed_params().unwrap_or((0, 0, 0));
        let v_match = _mm512_set1_epi32(f_match);
        let v_mis = _mm512_set1_epi32(-f_mis);
        let v_amb = _mm512_set1_epi32(-f_amb);
        let v_acgt_max = _mm512_set1_epi32(i32::from(crate::Base::N.code()) - 1);
        let sub_rows = sc.model.matrix().map(|m| matrix_sub_lanes::<B>(ctx, m, j0, rcodes, qcodes));
        let neg_inf = _mm512_set1_epi32(NEG_INF);
        let interior = ctx.block_interior(i0, j0);

        let wh_in = *west_h;
        let we_in = *west_e;
        let nh_in = *north_h;
        let nf_in = *north_f;

        // Reference codes are fixed per lane; the query codes slide one
        // lane per diagonal (lane l of diagonal d reads qcodes[d-l]).
        let mut r32 = [0i32; B];
        for (slot, &c) in r32.iter_mut().zip(rcodes.iter()) {
            *slot = i32::from(c);
        }
        let r_vec = load16(&r32);
        let mut q_vec = _mm512_setzero_si512();

        let mut h_prev = shift_up(neg_inf, nh_in[0]); // "H_{-1}": north seed in lane 0
        let mut f_prev = shift_up(neg_inf, nf_in[0]);
        let mut e_prev = neg_inf;
        let mut h_prev2 = neg_inf;

        let mut e_tmp = [[0i32; B]; B];
        let mut f_tmp = [[0i32; B]; B];

        for d in 0..DIAGS {
            let bh = if d < B { wh_in[d] } else { NEG_INF };
            let be = if d < B { we_in[d] } else { NEG_INF };
            let bd = if d == 0 {
                corner
            } else if d <= B {
                wh_in[d - 1]
            } else {
                NEG_INF
            };

            q_vec = shift_up(q_vec, if d < B { i32::from(qcodes[d]) } else { 0 });

            let up_h = shift_up(h_prev, bh);
            let up_e = shift_up(e_prev, be);
            let dg = shift_up(h_prev2, bd);

            // Substitution: matrix rows (sign-extended i16 → i32) when
            // present, else the fixed-model select on mask registers
            // (ambiguous beats match beats mismatch).
            let sub = match &sub_rows {
                Some(rows) => {
                    _mm512_cvtepi16_epi32(_mm256_loadu_si256(rows[d].as_ptr().cast::<__m256i>()))
                }
                None => {
                    let eq = _mm512_cmpeq_epi32_mask(r_vec, q_vec);
                    let amb = _mm512_cmpgt_epi32_mask(_mm512_max_epi32(r_vec, q_vec), v_acgt_max);
                    _mm512_mask_blend_epi32(amb, _mm512_mask_blend_epi32(eq, v_mis, v_match), v_amb)
                }
            };

            let e = _mm512_max_epi32(_mm512_sub_epi32(up_h, oe), _mm512_sub_epi32(up_e, ext));
            let f = _mm512_max_epi32(_mm512_sub_epi32(h_prev, oe), _mm512_sub_epi32(f_prev, ext));
            let h = _mm512_max_epi32(e, _mm512_max_epi32(f, _mm512_add_epi32(dg, sub)));

            // The staged mask word is the mask operand, as in the i16
            // kernel.
            let mask_bits = if interior { struct_mask(B, d) } else { lane_mask(ctx, i0, j0, d) };
            let mut h_m = _mm512_mask_blend_epi32(mask_bits, neg_inf, h);
            let e_m = _mm512_mask_blend_epi32(mask_bits, neg_inf, e);
            let mut f_m = _mm512_mask_blend_epi32(mask_bits, neg_inf, f);

            store16(&mut cells.h[d], h_m);
            cells.mask[d] = mask_bits;

            if d >= B - 1 {
                let k = d - (B - 1);
                store16(&mut e_tmp[k], e_m);
                store16(&mut f_tmp[k], f_m);
            }

            if d + 1 < B {
                // Pre-seed the next row's north boundary into lane d+1:
                // one masked broadcast.
                let one_hot = 1u16 << (d + 1);
                h_m = _mm512_mask_set1_epi32(h_m, one_hot, nh_in[d + 1]);
                f_m = _mm512_mask_set1_epi32(f_m, one_hot, nf_in[d + 1]);
            }

            h_prev2 = h_prev;
            h_prev = h_m;
            e_prev = e_m;
            f_prev = f_m;
        }

        // Boundary outputs, extracted once the stores have drained.
        for k in 0..B {
            west_h[k] = cells.h[k + B - 1][B - 1];
            west_e[k] = e_tmp[k][B - 1];
            north_h[k] = cells.h[k + B - 1][k];
            north_f[k] = f_tmp[k][k];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::block::fill_scalar;
    use crate::pack::PackedSeq;
    use crate::Scoring;

    /// Deterministic xorshift-ish stream for test inputs.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            self.0 >> 16
        }
        fn code(&mut self) -> u8 {
            (self.next() % 5) as u8 // includes N
        }
        fn val(&mut self) -> i32 {
            match self.next() % 4 {
                0 => NEG_INF,
                _ => (self.next() % 2000) as i32 - 1000,
            }
        }
    }

    type Fill<const B: usize> = for<'a, 'b> fn(
        &'a BlockCtx<'b>,
        i64,
        i64,
        &'a [u8; B],
        &'a [u8; B],
        i32,
        &'a mut BoundaryT<B>,
        &'a mut BoundaryT<B>,
        &'a mut BoundaryT<B>,
        &'a mut BoundaryT<B>,
        &'a mut BlockCellsT<i32, B>,
    );

    type Fill16<const B: usize> = for<'a, 'b> fn(
        &'a BlockCtx<'b>,
        i64,
        i64,
        &'a [u8; B],
        &'a [u8; B],
        i32,
        &'a mut BoundaryT<B>,
        &'a mut BoundaryT<B>,
        &'a mut BoundaryT<B>,
        &'a mut BoundaryT<B>,
        &'a mut BlockCellsT<i16, B>,
    );

    /// Run one block through both fills and assert identical staging
    /// buffers (on structural lanes), masks, and boundary outputs.
    #[allow(clippy::too_many_arguments)]
    fn check_block<const B: usize>(
        ctx: &BlockCtx<'_>,
        i0: i64,
        j0: i64,
        rcodes: &[u8; B],
        qcodes: &[u8; B],
        corner: i32,
        west_h: BoundaryT<B>,
        west_e: BoundaryT<B>,
        north_h: BoundaryT<B>,
        north_f: BoundaryT<B>,
    ) {
        let mut cells_s = BlockCellsT::<i32, B>::new();
        let (mut wh_s, mut we_s, mut nh_s, mut nf_s) = (west_h, west_e, north_h, north_f);
        fill_scalar(
            ctx,
            i0,
            j0,
            rcodes,
            qcodes,
            corner,
            &mut wh_s,
            &mut we_s,
            &mut nh_s,
            &mut nf_s,
            &mut cells_s,
        );

        for (name, fill) in [
            ("portable", fill_portable::<B> as Fill<B>),
            ("dispatch", fill_wavefront::<B> as Fill<B>),
        ] {
            let mut cells_v = BlockCellsT::<i32, B>::new();
            let (mut wh_v, mut we_v, mut nh_v, mut nf_v) = (west_h, west_e, north_h, north_f);
            fill(
                ctx,
                i0,
                j0,
                rcodes,
                qcodes,
                corner,
                &mut wh_v,
                &mut we_v,
                &mut nh_v,
                &mut nf_v,
                &mut cells_v,
            );
            assert_eq!(cells_v.mask, cells_s.mask, "{name}: masks at ({i0},{j0})");
            for d in 0..block_diags(B) {
                let sm = struct_mask(B, d);
                for l in 0..B {
                    if sm & (1 << l) != 0 {
                        assert_eq!(
                            cells_v.h[d][l], cells_s.h[d][l],
                            "{name}: H mismatch at block ({i0},{j0}) diag {d} lane {l}"
                        );
                    }
                }
            }
            assert_eq!(wh_v, wh_s, "{name}: west H at ({i0},{j0})");
            assert_eq!(we_v, we_s, "{name}: west E at ({i0},{j0})");
            assert_eq!(nh_v, nh_s, "{name}: north H at ({i0},{j0})");
            assert_eq!(nf_v, nf_s, "{name}: north F at ({i0},{j0})");
        }

        // The 16-bit tier against the same scalar reference. Real values
        // must match bit for bit; `-∞`-class values (possible here because
        // the harness feeds arbitrary NEG_INF boundaries, unlike a real
        // task where in-band diag inputs are always real) may differ in
        // encoding but must stay in the sentinel band on both sides.
        if ctx.i16_exact {
            let same = |got16: i32, want32: i32, what: &str| {
                if want32 > i32::from(NEG_INF16) {
                    assert_eq!(got16, want32, "i16: {what} at ({i0},{j0})");
                } else {
                    assert!(got16 <= i32::from(NEG_INF16), "i16: {what} class at ({i0},{j0})");
                }
            };
            let mut runs = Vec::new();
            for (name, fill) in [
                ("portable16", fill_portable_i16::<B> as Fill16<B>),
                ("dispatch16", fill_wavefront_i16::<B> as Fill16<B>),
            ] {
                let mut cells_n = BlockCellsT::<i16, B>::new();
                let (mut wh_n, mut we_n, mut nh_n, mut nf_n) = (west_h, west_e, north_h, north_f);
                fill(
                    ctx,
                    i0,
                    j0,
                    rcodes,
                    qcodes,
                    corner,
                    &mut wh_n,
                    &mut we_n,
                    &mut nh_n,
                    &mut nf_n,
                    &mut cells_n,
                );
                assert_eq!(cells_n.mask, cells_s.mask, "{name}: masks at ({i0},{j0})");
                for d in 0..block_diags(B) {
                    for l in 0..B {
                        if cells_s.mask[d] & (1 << l) != 0 {
                            same(i32::from(cells_n.h[d][l]), cells_s.h[d][l], "H");
                        }
                    }
                }
                for k in 0..B {
                    same(wh_n[k], wh_s[k], "west H");
                    same(we_n[k], we_s[k], "west E");
                    same(nh_n[k], nh_s[k], "north H");
                    same(nf_n[k], nf_s[k], "north F");
                }
                runs.push((cells_n.h, wh_n, we_n, nh_n, nf_n));
            }
            // The two i16 backends must agree exactly, sentinel encodings
            // included (the portable fill is the vector backends' reference).
            assert_eq!(runs[0], runs[1], "i16 backends diverge at ({i0},{j0})");
        }
    }

    /// Sweep every block of several scorings/shapes at geometry `B`,
    /// feeding random codes and boundaries.
    fn random_blocks_sweep<const B: usize>(seed: u64) {
        let scorings = [
            Scoring::figure1(),
            Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, 3),
            Scoring::new(1, 9, 0, 1, 40, 11),
            Scoring::new(5, 1, 7, 3, Scoring::NO_ZDROP, Scoring::NO_BAND),
        ];
        let mut rng = Rng(seed);
        for (si, sc) in scorings.iter().enumerate() {
            let (n, m) = (40 + si * 7, 33 + si * 5);
            let ctx = BlockCtx::with_block_dim(n, m, sc, B);
            assert!(ctx.simd_exact);
            for bi in 0..ctx.ref_blocks() {
                for bj in 0..ctx.query_blocks() {
                    let mut rcodes = [0u8; B];
                    let mut qcodes = [0u8; B];
                    let mut bounds = [[0i32; B]; 4];
                    for l in 0..B {
                        rcodes[l] = rng.code();
                        qcodes[l] = rng.code();
                        for b in &mut bounds {
                            b[l] = rng.val();
                        }
                    }
                    check_block(
                        &ctx,
                        bi * B as i64,
                        bj * B as i64,
                        &rcodes,
                        &qcodes,
                        rng.val(),
                        bounds[0],
                        bounds[1],
                        bounds[2],
                        bounds[3],
                    );
                }
            }
        }
    }

    #[test]
    fn wavefront_matches_scalar_on_random_blocks() {
        random_blocks_sweep::<BLOCK>(0x5EED);
    }

    #[test]
    fn wavefront_matches_scalar_on_random_blocks_wide() {
        random_blocks_sweep::<MAX_BLOCK>(0x51DE);
    }

    /// Sweep every block of a substitution-matrix scoring at geometry `B`:
    /// all tiers against the scalar fill, with the matrix path exercised
    /// both through direct lookups and through a prepared query profile
    /// (the two must be bit-identical by construction).
    fn matrix_blocks_sweep<const B: usize>(seed: u64) {
        use crate::profile::QueryProfile;
        use crate::scoring::BLOSUM62;

        let sc = Scoring::preset_blosum62();
        let mut rng = Rng(seed);
        let (n, m) = (53usize, 47usize);
        // A real packed query, so the profile rows and the unpacked block
        // codes describe the same residues.
        let qfull: Vec<u8> = (0..m).map(|_| (rng.next() % 21) as u8).collect();
        let q = PackedSeq::from_protein_codes(&qfull, &BLOSUM62);
        let mut prof = QueryProfile::new();
        prof.prepare(&q, &sc);
        for use_profile in [false, true] {
            let ctx =
                BlockCtx::with_block_dim(n, m, &sc, B).with_profile(use_profile.then_some(&prof));
            assert!(ctx.simd_exact && ctx.i16_exact, "blosum62 at {n}×{m} fits both gates");
            for bi in 0..ctx.ref_blocks() {
                for bj in 0..ctx.query_blocks() {
                    let (i0, j0) = (bi * B as i64, bj * B as i64);
                    let mut rcodes = [0u8; B];
                    let mut qb = [0u8; B];
                    q.unpack_block(j0 as usize, &mut qb);
                    let mut bounds = [[0i32; B]; 4];
                    for l in 0..B {
                        rcodes[l] = (rng.next() % 21) as u8;
                        for b in &mut bounds {
                            b[l] = rng.val();
                        }
                    }
                    check_block(
                        &ctx,
                        i0,
                        j0,
                        &rcodes,
                        &qb,
                        rng.val(),
                        bounds[0],
                        bounds[1],
                        bounds[2],
                        bounds[3],
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_model_matches_scalar_on_random_blocks() {
        matrix_blocks_sweep::<BLOCK>(0xB105);
    }

    #[test]
    fn matrix_model_matches_scalar_on_random_blocks_wide() {
        matrix_blocks_sweep::<MAX_BLOCK>(0xB162);
    }

    /// One step of the block-grid protocol: compute the block at
    /// `(i0, j0)` (with whichever fill the harness is exercising) and feed
    /// the tracker. Boundary arrays follow the [`crate::block::compute_block`]
    /// in/out convention.
    type GridStep<'a, const B: usize> = &'a mut dyn FnMut(
        &BlockCtx<'_>,
        i64,
        i64,
        &[u8; B],
        &[u8; B],
        i32,
        &mut BoundaryT<B>,
        &mut BoundaryT<B>,
        &mut BoundaryT<B>,
        &mut BoundaryT<B>,
        &mut crate::diag::DiagTracker,
    );

    /// Drive the block grid end-to-end (the one copy of the grid-driving
    /// protocol shared by every fill-tier harness) and return the complete
    /// guided result.
    fn grid_run_with<const B: usize>(
        r: &PackedSeq,
        q: &PackedSeq,
        sc: &Scoring,
        step: GridStep<'_, B>,
    ) -> crate::result::GuidedResult {
        use crate::diag::DiagTracker;
        let ctx = BlockCtx::with_block_dim(r.len(), q.len(), sc, B);
        let mut tracker = DiagTracker::new(r.len(), q.len(), sc);
        let b = B as i64;
        let padded_n = (ctx.ref_blocks() * b) as usize;
        let mut row_h = vec![NEG_INF; padded_n];
        let mut row_f = vec![NEG_INF; padded_n];
        let (mut rb, mut qb) = ([0u8; B], [0u8; B]);
        'rows: for bj in 0..ctx.query_blocks() {
            let j0 = bj * b;
            let Some((lo, hi)) = ctx.row_block_range(bj) else { continue };
            q.unpack_block(j0 as usize, &mut qb);
            let (mut wh, mut we) = crate::block::west_init::<B>(&ctx, lo * b, j0);
            let mut corner = crate::block::corner_read(&ctx, lo * b, j0, &row_h);
            for bi in lo..=hi {
                let i0 = bi * b;
                r.unpack_block(i0 as usize, &mut rb);
                let (mut nh, mut nf) = crate::block::north_read::<B>(&ctx, i0, j0, &row_h, &row_f);
                let next_corner = nh[B - 1];
                step(
                    &ctx,
                    i0,
                    j0,
                    &rb,
                    &qb,
                    corner,
                    &mut wh,
                    &mut we,
                    &mut nh,
                    &mut nf,
                    &mut tracker,
                );
                row_h[i0 as usize..i0 as usize + B].copy_from_slice(&nh);
                row_f[i0 as usize..i0 as usize + B].copy_from_slice(&nf);
                corner = next_corner;
                if tracker.is_finished() {
                    break 'rows;
                }
            }
            if tracker.advance().is_some() {
                break;
            }
        }
        tracker.result()
    }

    /// [`grid_run_with`] using an explicit [`crate::block::FillMode`].
    fn grid_run<const B: usize>(
        r: &PackedSeq,
        q: &PackedSeq,
        sc: &Scoring,
        mode: crate::block::FillMode,
    ) -> crate::result::GuidedResult {
        let mut cells = BlockCellsT::<i32, B>::new();
        grid_run_with::<B>(r, q, sc, &mut |ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, tracker| {
            crate::block::compute_block_mode(
                mode, ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, &mut cells,
            );
            tracker.on_block(&cells);
        })
    }

    /// [`grid_run_with`] on the 16-bit tier:
    /// [`crate::block::compute_block_i16`] staging into a 16-bit buffer,
    /// folded by `on_block_i16`.
    fn grid_run_i16<const B: usize>(
        r: &PackedSeq,
        q: &PackedSeq,
        sc: &Scoring,
    ) -> crate::result::GuidedResult {
        assert!(
            BlockCtx::with_block_dim(r.len(), q.len(), sc, B).i16_exact,
            "grid_run_i16 callers must pick gate-admitted tasks"
        );
        let mut cells = BlockCellsT::<i16, B>::new();
        grid_run_with::<B>(r, q, sc, &mut |ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, tracker| {
            crate::block::compute_block_i16(
                ctx, i0, j0, rb, qb, corner, wh, we, nh, nf, &mut cells,
            );
            tracker.on_block_i16(&cells);
        })
    }

    #[test]
    fn wavefront_matches_scalar_via_block_grid() {
        // End-to-end: drive block_grid_align manually with each fill tier
        // at each geometry and compare complete guided results.
        use crate::block::FillMode;
        use crate::guided::guided_align;

        let mut rng = Rng(0xA11E);
        for case in 0..12 {
            let len_r = 16 + (rng.next() % 120) as usize;
            let len_q = 16 + (rng.next() % 120) as usize;
            let rcodes: Vec<u8> = (0..len_r).map(|_| rng.code()).collect();
            let qcodes: Vec<u8> = (0..len_q).map(|_| rng.code()).collect();
            let (rp, qp) = (PackedSeq::from_codes(&rcodes), PackedSeq::from_codes(&qcodes));
            let sc = match case % 4 {
                0 => Scoring::new(2, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND),
                1 => Scoring::new(2, 4, 4, 2, 20, 9),
                2 => Scoring::new(1, 6, 2, 1, Scoring::NO_ZDROP, 5),
                _ => Scoring::new(3, 2, 5, 2, 15, Scoring::NO_BAND),
            };
            let want = guided_align(&rp, &qp, &sc);
            let scalar = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Scalar);
            let simd = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Simd);
            let narrow = grid_run_i16::<BLOCK>(&rp, &qp, &sc);
            assert_eq!(scalar, simd, "case {case}: scalar vs simd fill");
            assert_eq!(scalar, narrow, "case {case}: scalar vs i16 fill");
            // The wide geometry tiles the same table differently but must
            // produce the identical guided result in both precisions.
            let wide = grid_run::<MAX_BLOCK>(&rp, &qp, &sc, FillMode::Simd);
            let wide16 = grid_run_i16::<MAX_BLOCK>(&rp, &qp, &sc);
            assert_eq!(scalar, wide, "case {case}: scalar vs wide i32 fill");
            assert_eq!(scalar, wide16, "case {case}: scalar vs wide i16 fill");
            assert!(scalar.same_alignment(&want), "case {case}: {scalar:?} vs {want:?}");
            assert_eq!(scalar.cells, want.cells, "case {case}");
        }
    }

    #[test]
    fn matrix_model_matches_scalar_via_block_grid() {
        // End-to-end under BLOSUM62: every fill tier at both geometries
        // must reproduce the scalar guided result on protein tasks.
        use crate::block::FillMode;
        use crate::guided::guided_align;
        use crate::scoring::BLOSUM62;

        let mut rng = Rng(0xB10C);
        for case in 0..6 {
            let len_r = 16 + (rng.next() % 100) as usize;
            let len_q = 16 + (rng.next() % 100) as usize;
            let rcodes: Vec<u8> = (0..len_r).map(|_| (rng.next() % 21) as u8).collect();
            let qcodes: Vec<u8> = (0..len_q).map(|_| (rng.next() % 21) as u8).collect();
            let rp = PackedSeq::from_protein_codes(&rcodes, &BLOSUM62);
            let qp = PackedSeq::from_protein_codes(&qcodes, &BLOSUM62);
            let sc = if case % 2 == 0 {
                Scoring::preset_blosum62()
            } else {
                Scoring::preset_blosum62().with_zdrop(Scoring::NO_ZDROP).with_band(Scoring::NO_BAND)
            };
            let want = guided_align(&rp, &qp, &sc);
            let scalar = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Scalar);
            let simd = grid_run::<BLOCK>(&rp, &qp, &sc, FillMode::Simd);
            let narrow = grid_run_i16::<BLOCK>(&rp, &qp, &sc);
            let wide = grid_run::<MAX_BLOCK>(&rp, &qp, &sc, FillMode::Simd);
            let wide16 = grid_run_i16::<MAX_BLOCK>(&rp, &qp, &sc);
            assert_eq!(scalar, simd, "case {case}: scalar vs simd fill");
            assert_eq!(scalar, narrow, "case {case}: scalar vs i16 fill");
            assert_eq!(scalar, wide, "case {case}: scalar vs wide i32 fill");
            assert_eq!(scalar, wide16, "case {case}: scalar vs wide i16 fill");
            assert!(scalar.same_alignment(&want), "case {case}: {scalar:?} vs {want:?}");
            assert_eq!(scalar.cells, want.cells, "case {case}");
        }
    }

    #[test]
    fn oversized_scoring_falls_back_to_scalar() {
        // A scoring whose per-step increment is too large for the wavefront
        // exactness proof must degrade to the scalar fill (simd_exact off)
        // when dispatched through compute_block_mode(Simd).
        use crate::block::{compute_block_mode, FillMode};

        let sc = Scoring::new(1 << 28, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let ctx = BlockCtx::new(64, 64, &sc);
        assert!(!ctx.simd_exact);
        let small = Scoring::figure1();
        assert!(BlockCtx::new(64, 64, &small).simd_exact);

        // Craft a block whose DP actually saturates: all-match codes add
        // 2^28 per diagonal step starting from a corner near i32::MAX, so
        // the scalar fill's saturating_add pins at i32::MAX while a
        // wavefront fill would wrap. If the Simd dispatch ever stopped
        // falling back, the outputs below would diverge (or the wavefront
        // would overflow-panic in debug builds) — either way this test
        // catches it.
        let rcodes = [0u8; BLOCK];
        let qcodes = [0u8; BLOCK];
        let corner = i32::MAX - 100;
        let west_h = [i32::MAX - 200; BLOCK];
        let west_e = [NEG_INF; BLOCK];
        let north_h = [i32::MAX - 200; BLOCK];
        let north_f = [NEG_INF; BLOCK];

        let run = |mode: FillMode| {
            let mut cells = BlockCells::new();
            let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
            compute_block_mode(
                mode, &ctx, 8, 8, &rcodes, &qcodes, corner, &mut wh, &mut we, &mut nh, &mut nf,
                &mut cells,
            );
            (cells.h, cells.mask, wh, we, nh, nf)
        };
        let scalar = run(FillMode::Scalar);
        let simd = run(FillMode::Simd);
        assert_eq!(scalar, simd, "Simd mode must fall back to the scalar fill when !simd_exact");
        // The crafted inputs really do reach saturation (the discriminating
        // regime for the two add semantics).
        assert!(scalar.0.iter().any(|row| row.contains(&i32::MAX)), "expected saturated cells");
    }

    #[test]
    fn i16_gate_boundary_is_exact() {
        // All-match tasks that land the gate's reachable-score bound
        // exactly at the i16 threshold (2^13) and one unit inside it:
        // match = 64 with gap_open = 0, gap_extend = 1 makes the match
        // score the dominant per-step increment, so the bound is
        // 64 × (n + m + 2).
        use crate::block::{FillMode, FillPrecision, FillTier};
        use crate::guided::guided_align;

        let sc = Scoring::new(64, 1, 0, 1, Scoring::NO_ZDROP, Scoring::NO_BAND);

        // n + m + 2 = 127 → bound 8128 < 8192: one inside the gate.
        let inside = BlockCtx::new(63, 62, &sc);
        assert!(inside.i16_exact, "63×62 must sit one step inside the i16 gate");
        assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::I16), FillTier::I16);
        assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I16);
        assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::I32), FillTier::I32);

        // n + m + 2 = 128 → bound 8192: exactly at the gate — demoted.
        let at = BlockCtx::new(63, 63, &sc);
        assert!(!at.i16_exact && at.simd_exact, "63×63 must demote to the i32 tier");
        assert_eq!(at.fill_tier(FillMode::Simd, FillPrecision::I16), FillTier::I32);
        assert_eq!(at.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I32);
        assert_eq!(at.fill_tier(FillMode::Scalar, FillPrecision::I16), FillTier::Scalar);

        // Inside the gate, an all-match task reaches the maximum attainable
        // score — the adversarial extreme the bound protects — and the i16
        // tier must still be bit-identical to the scalar fill.
        let r = PackedSeq::from_codes(&[0u8; 63]);
        let q = PackedSeq::from_codes(&[0u8; 62]);
        let want = guided_align(&r, &q, &sc);
        assert_eq!(want.score, 62 * 64, "all-match task must reach the gate's score regime");
        let scalar = grid_run::<BLOCK>(&r, &q, &sc, FillMode::Scalar);
        let narrow = grid_run_i16::<BLOCK>(&r, &q, &sc);
        assert_eq!(scalar, narrow, "i16 tier at the gate boundary must equal scalar");
        assert!(scalar.same_alignment(&want));

        // At the gate, the demoted (i32 wavefront) tier equals scalar too.
        let q2 = PackedSeq::from_codes(&[0u8; 63]);
        let scalar2 = grid_run::<BLOCK>(&r, &q2, &sc, FillMode::Scalar);
        let demoted = grid_run::<BLOCK>(&r, &q2, &sc, FillMode::Simd);
        assert_eq!(scalar2, demoted, "demoted task must run the exact i32 path");
        assert_eq!(scalar2.score, 63 * 64);
    }

    #[test]
    fn i16_saturates_rather_than_wraps_beyond_the_gate() {
        // Bypass the tier gate and drive the raw i16 fills on a block whose
        // DP genuinely exceeds i16 range: the saturating arithmetic must
        // pin at the rails (never wrap into plausible scores), both
        // backends must agree, and the scalar fill keeps the exact values —
        // which is precisely why fill_tier demotes such tasks.
        let sc = Scoring::new(4096, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let ctx = BlockCtx::new(64, 64, &sc);
        assert!(!ctx.i16_exact, "step 4096 must fail the i16 gate");
        assert!(ctx.simd_exact, "…while still fitting the i32 gate");

        let rcodes = [0u8; BLOCK];
        let qcodes = [0u8; BLOCK];
        let corner = 30_000;
        let west_h = [29_000; BLOCK];
        let west_e = [NEG_INF; BLOCK];
        let north_h = [29_000; BLOCK];
        let north_f = [NEG_INF; BLOCK];

        let mut cells_s = BlockCells::new();
        let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
        fill_scalar(
            &ctx,
            8,
            8,
            &rcodes,
            &qcodes,
            corner,
            &mut wh,
            &mut we,
            &mut nh,
            &mut nf,
            &mut cells_s,
        );
        assert!(
            cells_s.h.iter().any(|row| row.iter().any(|&h| h > i32::from(i16::MAX))),
            "crafted block must exceed i16 range in the exact fill"
        );

        let mut cells_n = BlockCells16::new();
        let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
        fill_portable_i16(
            &ctx,
            8,
            8,
            &rcodes,
            &qcodes,
            corner,
            &mut wh,
            &mut we,
            &mut nh,
            &mut nf,
            &mut cells_n,
        );
        let mut saw_rail = false;
        for d in 0..BLOCK_DIAGS {
            for l in 0..BLOCK {
                if cells_n.mask[d] & (1 << l) != 0 {
                    let h = cells_n.h[d][l];
                    let exact = cells_s.h[d][l];
                    if i32::from(h) != exact {
                        // Divergence is only ever rail-pinning, never wrap.
                        assert_eq!(h, i16::MAX, "saturation must pin, not wrap");
                        saw_rail = true;
                    }
                }
            }
        }
        assert!(saw_rail, "crafted block must actually hit the i16 rail");

        // The per-block overflow sentinel catches exactly this regime in
        // debug builds when the dispatch is (wrongly) driven past the gate.
        #[cfg(debug_assertions)]
        {
            let result = std::panic::catch_unwind(|| {
                let mut cells = BlockCells16::new();
                let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
                fill_wavefront_i16(
                    &ctx, 8, 8, &rcodes, &qcodes, corner, &mut wh, &mut we, &mut nh, &mut nf,
                    &mut cells,
                );
            });
            assert!(result.is_err(), "overflow sentinel must trip on a saturated block");
        }
    }

    /// Forces a backend for a scope, restoring the previous process-wide
    /// choice on drop — panic unwinds included, so a failing forced test
    /// cannot leak its choice into later tests in this binary.
    struct ForcedBackend {
        prev: BackendChoice,
    }
    impl ForcedBackend {
        fn install(b: WavefrontBackend) -> Self {
            let prev = backend_choice();
            set_backend_choice(BackendChoice::Fixed(b));
            ForcedBackend { prev }
        }
    }
    impl Drop for ForcedBackend {
        fn drop(&mut self) {
            set_backend_choice(self.prev);
        }
    }

    #[test]
    fn forced_backend_sweeps_cover_all_dispatch_arms() {
        // Every backend this machine can run, forced in turn through the
        // random-block and matrix batteries at both geometries, so each
        // dispatch arm — the AVX-512 zmm fills included, where the CPU has
        // them — is held to the scalar reference regardless of what Auto
        // would have picked on this host.
        let _lock = backend_test_lock();
        for b in supported_backends() {
            let _forced = ForcedBackend::install(b);
            assert_eq!(backend(), b, "a supported backend must survive the clamp");
            random_blocks_sweep::<BLOCK>(0xF0CE);
            random_blocks_sweep::<MAX_BLOCK>(0xF1DE);
            matrix_blocks_sweep::<MAX_BLOCK>(0xFACE);
        }
    }

    #[test]
    fn avx512_gate_boundary_is_exact_at_wide_geometry() {
        // The 2^13 gate battery at the wide geometry with the AVX-512
        // backend forced: on hosts without AVX-512 the force clamps to the
        // detected backend, and every assertion below still holds (the
        // fills are bit-identical by contract), so the test is meaningful
        // everywhere while pinning the zmm kernels where they exist.
        use crate::block::{FillMode, FillPrecision, FillTier};
        use crate::guided::guided_align;

        let _lock = backend_test_lock();
        let _forced = ForcedBackend::install(WavefrontBackend::Avx512);

        let sc = Scoring::new(64, 1, 0, 1, Scoring::NO_ZDROP, Scoring::NO_BAND);

        // n + m + 2 = 127 → bound 8128 < 8192: one inside the gate, and the
        // gate decision is geometry-independent.
        let inside = BlockCtx::with_block_dim(63, 62, &sc, MAX_BLOCK);
        assert!(inside.i16_exact, "63×62 must sit one step inside the i16 gate");
        assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::I16), FillTier::I16);
        assert_eq!(inside.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I16);

        // n + m + 2 = 128 → bound 8192: exactly at the gate — demoted.
        let at = BlockCtx::with_block_dim(63, 63, &sc, MAX_BLOCK);
        assert!(!at.i16_exact && at.simd_exact, "63×63 must demote to the i32 tier");
        assert_eq!(at.fill_tier(FillMode::Simd, FillPrecision::Auto), FillTier::I32);

        // Inside the gate an all-match task reaches the maximum attainable
        // score; the 32-lane i16 fill must still equal the scalar fill.
        let r = PackedSeq::from_codes(&[0u8; 63]);
        let q = PackedSeq::from_codes(&[0u8; 62]);
        let want = guided_align(&r, &q, &sc);
        assert_eq!(want.score, 62 * 64, "all-match task must reach the gate's score regime");
        let scalar = grid_run::<MAX_BLOCK>(&r, &q, &sc, FillMode::Scalar);
        let narrow = grid_run_i16::<MAX_BLOCK>(&r, &q, &sc);
        assert_eq!(scalar, narrow, "wide i16 tier at the gate boundary must equal scalar");
        assert!(scalar.same_alignment(&want));

        // At the gate, the demoted path is the 16×i32 zmm fill.
        let q2 = PackedSeq::from_codes(&[0u8; 63]);
        let scalar2 = grid_run::<MAX_BLOCK>(&r, &q2, &sc, FillMode::Scalar);
        let demoted = grid_run::<MAX_BLOCK>(&r, &q2, &sc, FillMode::Simd);
        assert_eq!(scalar2, demoted, "demoted task must run the exact wide i32 path");
        assert_eq!(scalar2.score, 63 * 64);
    }

    #[test]
    fn wide_i16_saturates_rather_than_wraps_beyond_the_gate() {
        // The saturation probe at the wide geometry: drive the raw 32-lane
        // i16 fills past the gate and require rail-pinning (never wrap),
        // with the AVX-512 backend forced so the masked zmm kernel is the
        // path under test on hosts that have it (clamped hosts exercise
        // their own widest arm — the contract is identical).
        use crate::block::{BlockCells16Wide, BlockCellsWide};

        let _lock = backend_test_lock();
        let _forced = ForcedBackend::install(WavefrontBackend::Avx512);

        let sc = Scoring::new(4096, 4, 4, 2, Scoring::NO_ZDROP, Scoring::NO_BAND);
        let ctx = BlockCtx::with_block_dim(64, 64, &sc, MAX_BLOCK);
        assert!(!ctx.i16_exact, "step 4096 must fail the i16 gate");
        assert!(ctx.simd_exact, "…while still fitting the i32 gate");

        let rcodes = [0u8; MAX_BLOCK];
        let qcodes = [0u8; MAX_BLOCK];
        let corner = 30_000;
        let west_h = [29_000; MAX_BLOCK];
        let west_e = [NEG_INF; MAX_BLOCK];
        let north_h = [29_000; MAX_BLOCK];
        let north_f = [NEG_INF; MAX_BLOCK];

        let mut cells_s = BlockCellsWide::new();
        let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
        fill_scalar(
            &ctx,
            16,
            16,
            &rcodes,
            &qcodes,
            corner,
            &mut wh,
            &mut we,
            &mut nh,
            &mut nf,
            &mut cells_s,
        );
        assert!(
            cells_s.h.iter().any(|row| row.iter().any(|&h| h > i32::from(i16::MAX))),
            "crafted wide block must exceed i16 range in the exact fill"
        );

        let mut cells_n = BlockCells16Wide::new();
        let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
        fill_portable_i16(
            &ctx,
            16,
            16,
            &rcodes,
            &qcodes,
            corner,
            &mut wh,
            &mut we,
            &mut nh,
            &mut nf,
            &mut cells_n,
        );
        let mut saw_rail = false;
        for d in 0..block_diags(MAX_BLOCK) {
            for l in 0..MAX_BLOCK {
                if cells_n.mask[d] & (1 << l) != 0 {
                    let h = cells_n.h[d][l];
                    let exact = cells_s.h[d][l];
                    if i32::from(h) != exact {
                        // Divergence is only ever rail-pinning, never wrap.
                        assert_eq!(h, i16::MAX, "saturation must pin, not wrap");
                        saw_rail = true;
                    }
                }
            }
        }
        assert!(saw_rail, "crafted wide block must actually hit the i16 rail");

        // The overflow sentinel catches this regime for the wide vector
        // fill too when the dispatch is (wrongly) driven past the gate.
        #[cfg(debug_assertions)]
        {
            let result = std::panic::catch_unwind(|| {
                let mut cells = BlockCells16Wide::new();
                let (mut wh, mut we, mut nh, mut nf) = (west_h, west_e, north_h, north_f);
                fill_wavefront_i16(
                    &ctx, 16, 16, &rcodes, &qcodes, corner, &mut wh, &mut we, &mut nh, &mut nf,
                    &mut cells,
                );
            });
            assert!(result.is_err(), "overflow sentinel must trip on a saturated wide block");
        }
    }
}
