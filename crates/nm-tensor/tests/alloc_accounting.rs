//! Tensor-buffer allocation accounting. The counters in
//! `nm_tensor::alloc` are process-global, so these tests live in their
//! own test binary, where no other test's tensors can land in a
//! window, and every test holds one lock so no test opens, closes or
//! resets a window while another counts.

use nm_tensor::alloc::{counters, reset, set_enabled, stats};
use nm_tensor::Tensor;
use std::sync::{Mutex, MutexGuard};

fn lock() -> MutexGuard<'static, ()> {
    static GUARD: Mutex<()> = Mutex::new(());
    GUARD.lock().unwrap_or_else(|e| e.into_inner())
}

/// Counts `f` in a fresh window; the caller holds [`lock`].
fn window<R>(f: impl FnOnce() -> R) -> R {
    reset();
    set_enabled(true);
    let r = f();
    set_enabled(false);
    r
}

#[test]
fn construction_and_drop_balance() {
    let _g = lock();
    let s = window(|| {
        let t = Tensor::zeros(4, 8); // 128 bytes
        let u = t.clone(); // +128
        drop(t);
        drop(u);
        stats()
    });
    assert_eq!(s.allocated_b, 256);
    assert_eq!(s.freed_b, 256);
    assert_eq!(s.live_b, 0);
    assert_eq!(s.peak_b, 256);
}

#[test]
fn into_vec_releases_the_buffer() {
    let _g = lock();
    let s = window(|| {
        let t = Tensor::ones(2, 2); // 16 bytes
        let v = t.into_vec();
        assert_eq!(v.len(), 4);
        stats()
    });
    assert_eq!(s.allocated_b, 16);
    assert_eq!(s.freed_b, 16);
    assert_eq!(s.live_b, 0);
}

#[test]
fn peak_tracks_the_high_water_mark() {
    let _g = lock();
    let s = window(|| {
        let a = Tensor::zeros(10, 10); // 400
        {
            let _b = Tensor::zeros(10, 10); // peak 800
        }
        let _c = Tensor::zeros(1, 1); // live 404 < peak
        drop(a);
        stats()
    });
    assert_eq!(s.peak_b, 800);
}

#[test]
fn disabled_counters_stay_put() {
    // The lock keeps every window closed while the disabled path runs.
    let _g = lock();
    set_enabled(false);
    let before = counters();
    let t = Tensor::zeros(16, 16);
    drop(t);
    assert_eq!(counters(), before);
}

#[test]
fn pre_window_tensors_cannot_underflow_live() {
    let _g = lock();
    let t = Tensor::zeros(8, 8); // created outside the window
    let s = window(|| {
        drop(t);
        stats()
    });
    assert_eq!(s.live_b, 0, "freeing a pre-window tensor saturates");
    assert_eq!(s.freed_b, 256);
}
