//! The lane vectors behind the walk operator's pull kernel, and the
//! instruction sets this host can run them in.
//!
//! A [`LaneVector`] holds `W` f64 lanes in registers: `[f64; W]` for every
//! width, portable, and on x86-64 two AVX2 vectors ([`Avx2x2`]) or one
//! AVX-512F vector ([`Avx512`]) for 8 lanes.  Every form adds and
//! multiplies lane by lane, rounding each operation to nearest, and none
//! fuses a multiply into an add, so a kernel written once over
//! `V: LaneVector` computes the same bits in every instantiation; only the
//! instructions differ.  [`Isa`] says which instantiations a host runs.
//!
//! The x86-64 forms call `std::arch` intrinsics from `#[inline(always)]`
//! methods without `#[target_feature]` of their own: a kernel instantiates
//! them inside a `#[target_feature]` function, into which they inline, and
//! their `unsafe` contract is that the host supports the vector's
//! instruction set.

// Every item here is an intrinsic wrapper or a raw-pointer load or store,
// audited per function in its `# Safety` section.
#![allow(unsafe_code)]

/// The instruction sets the kernels are compiled for, in rising order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
#[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
pub(crate) enum Isa {
    /// Baseline code for the build target (SSE2 on x86-64).
    Portable,
    /// x86-64 with AVX2.
    Avx2,
    /// x86-64 with AVX-512F.
    Avx512,
}

impl Isa {
    /// The widest instruction set this host runs.
    pub(crate) fn detected() -> Isa {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx512f") {
                return Isa::Avx512;
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                return Isa::Avx2;
            }
        }
        Isa::Portable
    }

    /// Every instruction set this host runs, so a test can call each
    /// instantiation directly rather than only the one a dispatch picks.
    #[cfg(test)]
    pub(crate) fn supported() -> impl Iterator<Item = Isa> {
        [Isa::Portable, Isa::Avx2, Isa::Avx512]
            .into_iter()
            .filter(|&isa| isa <= Isa::detected())
    }
}

/// `W` f64 lanes held in registers, with the lane-wise arithmetic the pull
/// kernel needs.
///
/// # Safety
///
/// Every method requires a host that supports the implementor's
/// instruction set (any host for `[f64; W]`).
pub(crate) trait LaneVector: Copy {
    /// `x` in every lane.
    ///
    /// # Safety
    ///
    /// See the trait.
    unsafe fn splat(x: f64) -> Self;

    /// The `W` f64s at `ptr`.
    ///
    /// # Safety
    ///
    /// See the trait; `ptr` is valid for reading `W` f64s (any alignment).
    unsafe fn load(ptr: *const f64) -> Self;

    /// Writes the lanes to the `W` f64s at `ptr`.
    ///
    /// # Safety
    ///
    /// See the trait; `ptr` is valid for writing `W` f64s (any alignment).
    unsafe fn store(self, ptr: *mut f64);

    /// Lane-wise `self + rhs`.
    ///
    /// # Safety
    ///
    /// See the trait.
    unsafe fn add(self, rhs: Self) -> Self;

    /// Lane-wise `self · rhs`.
    ///
    /// # Safety
    ///
    /// See the trait.
    unsafe fn mul(self, rhs: Self) -> Self;
}

impl<const W: usize> LaneVector for [f64; W] {
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        [x; W]
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        ptr.cast::<[f64; W]>().read_unaligned()
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        ptr.cast::<[f64; W]>().write_unaligned(self);
    }

    #[inline(always)]
    unsafe fn add(mut self, rhs: Self) -> Self {
        for (x, y) in self.iter_mut().zip(rhs) {
            *x += y;
        }
        self
    }

    #[inline(always)]
    unsafe fn mul(mut self, rhs: Self) -> Self {
        for (x, y) in self.iter_mut().zip(rhs) {
            *x *= y;
        }
        self
    }
}

/// 8 lanes as two AVX2 vectors: lanes 0–3 and 4–7.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx2x2(std::arch::x86_64::__m256d, std::arch::x86_64::__m256d);

#[cfg(target_arch = "x86_64")]
impl LaneVector for Avx2x2 {
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        use std::arch::x86_64::_mm256_set1_pd;
        Avx2x2(_mm256_set1_pd(x), _mm256_set1_pd(x))
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        use std::arch::x86_64::_mm256_loadu_pd;
        Avx2x2(_mm256_loadu_pd(ptr), _mm256_loadu_pd(ptr.add(4)))
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        use std::arch::x86_64::_mm256_storeu_pd;
        _mm256_storeu_pd(ptr, self.0);
        _mm256_storeu_pd(ptr.add(4), self.1);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        use std::arch::x86_64::_mm256_add_pd;
        Avx2x2(_mm256_add_pd(self.0, rhs.0), _mm256_add_pd(self.1, rhs.1))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        use std::arch::x86_64::_mm256_mul_pd;
        Avx2x2(_mm256_mul_pd(self.0, rhs.0), _mm256_mul_pd(self.1, rhs.1))
    }
}

/// 8 lanes as one AVX-512F vector.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy)]
pub(crate) struct Avx512(std::arch::x86_64::__m512d);

#[cfg(target_arch = "x86_64")]
impl LaneVector for Avx512 {
    #[inline(always)]
    unsafe fn splat(x: f64) -> Self {
        Avx512(std::arch::x86_64::_mm512_set1_pd(x))
    }

    #[inline(always)]
    unsafe fn load(ptr: *const f64) -> Self {
        Avx512(std::arch::x86_64::_mm512_loadu_pd(ptr))
    }

    #[inline(always)]
    unsafe fn store(self, ptr: *mut f64) {
        std::arch::x86_64::_mm512_storeu_pd(ptr, self.0);
    }

    #[inline(always)]
    unsafe fn add(self, rhs: Self) -> Self {
        Avx512(std::arch::x86_64::_mm512_add_pd(self.0, rhs.0))
    }

    #[inline(always)]
    unsafe fn mul(self, rhs: Self) -> Self {
        Avx512(std::arch::x86_64::_mm512_mul_pd(self.0, rhs.0))
    }
}
