//! The floating-point environment kernel threads run under.
//!
//! As a wavefield's tail decays it passes through the f32 subnormal
//! range, and x86 cores handle every subnormal operand or result in
//! microcode — a 2–12× per-step slowdown on the shipped kernels. Like
//! Devito's generated operators (`_MM_SET_DENORMALS_ZERO_MODE` /
//! `_MM_SET_FLUSH_ZERO_MODE` at the top of every kernel), the executor
//! therefore runs with the MXCSR flush-to-zero (FTZ) and
//! denormals-are-zero (DAZ) bits set.
//!
//! The mode is scoped by [`FpEnvGuard`]: [`crate::OperatorExec::run`]
//! holds one for the whole run on its rank thread and every slab worker
//! of the threaded box path holds its own, so every thread that
//! executes kernel code — on every backend — runs in the same mode, and
//! the backends stay bitwise interchangeable. The guard restores the
//! previous mode when dropped, on unwind too, so the calling thread and
//! the init/extract closures never observe a changed mode.
//!
//! Off x86-64 the guard is a no-op and the hardware keeps its default
//! (IEEE) mode.

/// MXCSR flush-to-zero bit.
const MXCSR_FTZ: u32 = 1 << 15;
/// MXCSR denormals-are-zero bit.
const MXCSR_DAZ: u32 = 1 << 6;

/// MXCSR's sticky exception-status flags (bits 0–5): set by ordinary
/// arithmetic on the thread, so they are not part of the mode.
pub const MXCSR_FLAGS: u32 = 0x3f;

/// The calling thread's MXCSR, or `None` off x86-64.
pub fn mxcsr() -> Option<u32> {
    #[cfg(target_arch = "x86_64")]
    {
        Some(x86::read())
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        None
    }
}

/// Sets FTZ|DAZ on the calling thread for its lifetime and restores
/// the previous FTZ/DAZ bits on drop. Each flush perturbs a value by
/// less than the smallest normal number (2⁻¹²⁶ in f32) absolutely. Not `Send`: the register it
/// saved belongs to the thread that created it.
pub struct FpEnvGuard {
    #[cfg(target_arch = "x86_64")]
    saved: u32,
    _not_send: std::marker::PhantomData<*const ()>,
}

impl FpEnvGuard {
    /// Enter FTZ|DAZ on the calling thread.
    pub fn enter() -> FpEnvGuard {
        #[cfg(target_arch = "x86_64")]
        {
            let saved = x86::read();
            let want = saved | MXCSR_FTZ | MXCSR_DAZ;
            if want != saved {
                x86::write(want);
            }
            FpEnvGuard {
                saved,
                _not_send: std::marker::PhantomData,
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            FpEnvGuard {
                _not_send: std::marker::PhantomData,
            }
        }
    }
}

impl Drop for FpEnvGuard {
    fn drop(&mut self) {
        // Restore the mode bits only: the sticky exception flags raised
        // meanwhile stay raised, as they would without the guard.
        #[cfg(target_arch = "x86_64")]
        {
            let bits = MXCSR_FTZ | MXCSR_DAZ;
            let cur = x86::read();
            let want = (cur & !bits) | (self.saved & bits);
            if want != cur {
                x86::write(want);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    // The guard switches modes only at function boundaries (run entry,
    // slab-worker entry, and their exits), so no floating-point
    // expression straddles a write.

    pub(super) fn read() -> u32 {
        let mut v = 0u32;
        // SAFETY: `stmxcsr` stores 4 bytes to the pointed-to, live,
        // aligned u32 and has no other effect.
        unsafe {
            core::arch::asm!(
                "stmxcsr [{p}]",
                p = in(reg) &mut v as *mut u32,
                options(nostack, preserves_flags)
            );
        }
        v
    }

    pub(super) fn write(v: u32) {
        // SAFETY: `ldmxcsr` loads 4 bytes from the pointed-to, live,
        // aligned u32; callers only pass values read from MXCSR with the
        // FTZ/DAZ control bits toggled, which never set reserved bits.
        unsafe {
            core::arch::asm!(
                "ldmxcsr [{p}]",
                p = in(reg) &v as *const u32,
                options(nostack, preserves_flags, readonly)
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mode() -> u32 {
        mxcsr().unwrap() & !MXCSR_FLAGS
    }

    #[test]
    fn guard_sets_mode_and_restores_on_drop() {
        let Some(before) = mxcsr() else { return };
        let tiny = std::hint::black_box(f32::MIN_POSITIVE);
        assert!(
            (tiny * 0.5).is_subnormal(),
            "test threads start in IEEE mode"
        );
        {
            let _g = FpEnvGuard::enter();
            let m = mxcsr().unwrap();
            assert_eq!(m & (MXCSR_FTZ | MXCSR_DAZ), MXCSR_FTZ | MXCSR_DAZ);
            // Flushing is live: the smallest normal halved is zero.
            assert_eq!(std::hint::black_box(tiny * 0.5), 0.0);
            {
                // Entering again while flushed changes nothing, and the
                // inner drop must leave the outer guard's mode in place.
                let _inner = FpEnvGuard::enter();
            }
            assert_eq!(mode(), m & !MXCSR_FLAGS, "nested guard restores");
        }
        assert_eq!(mode(), before & !MXCSR_FLAGS);
        assert!((std::hint::black_box(tiny) * 0.5).is_subnormal());
    }

    #[test]
    fn guard_restores_on_unwind() {
        let Some(before) = mxcsr() else { return };
        let r = std::panic::catch_unwind(|| {
            let _g = FpEnvGuard::enter();
            panic!("kernel failure");
        });
        assert!(r.is_err());
        assert_eq!(mode(), before & !MXCSR_FLAGS);
    }
}
