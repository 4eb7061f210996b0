//! Differential tests pinning the imaging layer to its per-pixel
//! reference, bit for bit.
//!
//! `Image::resize` is separable (per-axis taps, one horizontal pass per
//! source row, an exact integer rounding step), `mse` sums in integers
//! and `synthetic_scene` draws each blob over its bounding box only. The
//! references below are the straightforward per-pixel forms those
//! replaced; every image must be equal and every `mse`/`psnr` must have
//! the same `f64` bits. Table 1's PSNR column is built from exactly these
//! calls, so any drift here would change published numbers.

use proptest::prelude::*;
use rto_stats::Rng;
use rto_workloads::imaging::{mse, psnr, synthetic_scene, Image};

/// Per-pixel bilinear resize: both neighbours, weights and the libm
/// rounding recomputed for every target pixel.
fn ref_resize(img: &Image, new_width: usize, new_height: usize) -> Image {
    let (width, height) = (img.width(), img.height());
    let mut out = Image::new(new_width, new_height);
    let sx = width as f64 / new_width as f64;
    let sy = height as f64 / new_height as f64;
    for y in 0..new_height {
        for x in 0..new_width {
            let fx = ((x as f64 + 0.5) * sx - 0.5).clamp(0.0, (width - 1) as f64);
            let fy = ((y as f64 + 0.5) * sy - 0.5).clamp(0.0, (height - 1) as f64);
            let x0 = fx.floor().clamp(0.0, u64::MAX as f64) as usize;
            let y0 = fy.floor().clamp(0.0, u64::MAX as f64) as usize;
            let x1 = x0.saturating_add(1).min(width - 1);
            let y1 = y0.saturating_add(1).min(height - 1);
            let dx = fx - x0 as f64;
            let dy = fy - y0 as f64;
            let top = img.get(x0, y0) as f64 * (1.0 - dx) + img.get(x1, y0) as f64 * dx;
            let bottom = img.get(x0, y1) as f64 * (1.0 - dx) + img.get(x1, y1) as f64 * dx;
            let v = top * (1.0 - dy) + bottom * dy;
            out.set(x, y, v.round().clamp(0.0, 255.0) as u8);
        }
    }
    out
}

/// `Image::degrade` over the reference resize.
fn ref_degrade(img: &Image, factor: f64) -> Image {
    let w = ((img.width() as f64 * factor).round() as usize).max(1);
    let h = ((img.height() as f64 * factor).round() as usize).max(1);
    if w == img.width() && h == img.height() {
        return img.clone();
    }
    ref_resize(&ref_resize(img, w, h), img.width(), img.height())
}

/// MSE summed in `f64`.
fn ref_mse(a: &Image, b: &Image) -> f64 {
    let sum: f64 = a
        .pixels()
        .iter()
        .zip(b.pixels())
        .map(|(&p, &q)| {
            let d = p as f64 - q as f64;
            d * d
        })
        .sum();
    sum / a.pixels().len() as f64
}

/// PSNR over the reference MSE.
fn ref_psnr(reference: &Image, candidate: &Image) -> f64 {
    let e = ref_mse(reference, candidate);
    if e <= 0.0 {
        return 99.0;
    }
    (10.0 * (255.0f64 * 255.0 / e).log10()).min(99.0)
}

/// Scene generation with every blob tested against every pixel.
fn ref_scene(width: usize, height: usize, rng: &mut Rng) -> Image {
    let mut img = Image::new(width, height);
    for y in 0..height {
        for x in 0..width {
            let g = 40.0 + 80.0 * (x as f64 / width as f64) + 40.0 * (y as f64 / height as f64);
            img.set(x, y, g.clamp(0.0, 255.0) as u8);
        }
    }
    let blobs = 6 + rng.usize_below(6);
    for _ in 0..blobs {
        let cx = rng.usize_below(width) as f64;
        let cy = rng.usize_below(height) as f64;
        let rx = 4.0 + rng.f64() * (width as f64 / 8.0);
        let ry = 4.0 + rng.f64() * (height as f64 / 8.0);
        let brightness = 120.0 + rng.f64() * 135.0;
        for y in 0..height {
            for x in 0..width {
                let nx = (x as f64 - cx) / rx;
                let ny = (y as f64 - cy) / ry;
                let d2 = nx * nx + ny * ny;
                if d2 < 1.0 {
                    let v = img.get(x, y) as f64;
                    let blended = v + (brightness - v) * (1.0 - d2);
                    img.set(x, y, blended.clamp(0.0, 255.0) as u8);
                }
            }
        }
    }
    let pixels = img
        .pixels()
        .iter()
        .map(|&p| {
            let noise = (rng.f64() - 0.5) * 12.0;
            (p as f64 + noise).clamp(0.0, 255.0) as u8
        })
        .collect();
    Image::from_pixels(width, height, pixels)
}

/// Per-pixel horizontal shifts with edge repeat.
fn ref_shift(img: &Image, dx: usize, right: bool) -> Image {
    let mut out = Image::new(img.width(), img.height());
    for y in 0..img.height() {
        for x in 0..img.width() {
            let src_x = if right {
                x.saturating_sub(dx)
            } else {
                (x + dx).min(img.width() - 1)
            };
            out.set(x, y, img.get(src_x, y));
        }
    }
    out
}

fn noise_image(width: usize, height: usize, seed: u64) -> Image {
    let mut rng = Rng::seed_from(seed);
    let pixels = (0..width * height)
        .map(|_| u8::try_from(rng.usize_below(256)).unwrap())
        .collect();
    Image::from_pixels(width, height, pixels)
}

/// Sizes covering single rows and columns, odd and even extents, and
/// the case-study frame.
const SIZES: [(usize, usize); 9] = [
    (1, 1),
    (1, 7),
    (9, 1),
    (2, 3),
    (5, 5),
    (17, 4),
    (33, 21),
    (64, 48),
    (300, 200),
];

#[test]
fn resize_matches_reference_on_up_and_down_scales() {
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let img = noise_image(w, h, i as u64);
        for &(nw, nh) in &[
            (1, 1),
            (1, h),
            (w, 1),
            (w, h),
            (w * 2, h * 3),
            (w.div_ceil(3), h.div_ceil(2)),
            (w + 1, h.div_ceil(2)),
            (7, 13),
        ] {
            assert_eq!(
                img.resize(nw, nh),
                ref_resize(&img, nw, nh),
                "{w}x{h} -> {nw}x{nh}"
            );
        }
    }
}

#[test]
fn degrade_mse_psnr_match_reference_across_factors() {
    let factors = [1e-3, 0.05, 0.1, 0.25, 0.33, 0.5, 0.65, 0.8, 0.999, 1.0];
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let img = synthetic_scene(w, h, &mut Rng::seed_from(100 + i as u64));
        for &f in &factors {
            let got = img.degrade(f);
            assert_eq!(got, ref_degrade(&img, f), "{w}x{h} at {f}");
            assert_eq!(
                mse(&img, &got).to_bits(),
                ref_mse(&img, &got).to_bits(),
                "mse {w}x{h} at {f}"
            );
            assert_eq!(
                psnr(&img, &got).to_bits(),
                ref_psnr(&img, &got).to_bits(),
                "psnr {w}x{h} at {f}"
            );
        }
    }
}

#[test]
fn synthetic_scene_matches_reference() {
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        for seed in 0..4 {
            let seed = seed * 31 + i as u64;
            let mut a = Rng::seed_from(seed);
            let mut b = Rng::seed_from(seed);
            assert_eq!(
                synthetic_scene(w, h, &mut a),
                ref_scene(w, h, &mut b),
                "{w}x{h} seed {seed}"
            );
            // Both consumed the same draws.
            assert_eq!(a.f64().to_bits(), b.f64().to_bits());
        }
    }
}

#[test]
fn shifts_match_reference() {
    for (i, &(w, h)) in SIZES.iter().enumerate() {
        let img = noise_image(w, h, 50 + i as u64);
        for dx in [0, 1, 2, w.saturating_sub(1), w, w + 3] {
            assert_eq!(
                img.shift_right(dx),
                ref_shift(&img, dx, true),
                "{w}x{h} >> {dx}"
            );
            assert_eq!(
                img.shift_left(dx),
                ref_shift(&img, dx, false),
                "{w}x{h} << {dx}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn resize_and_mse_match_reference_on_random_images(
        w in 1usize..40,
        h in 1usize..40,
        nw in 1usize..60,
        nh in 1usize..60,
        seed in 0u64..1_000_000_000,
    ) {
        let img = noise_image(w, h, seed);
        let got = img.resize(nw, nh);
        prop_assert_eq!(&got, &ref_resize(&img, nw, nh));
        let back = got.resize(w, h);
        prop_assert_eq!(mse(&img, &back).to_bits(), ref_mse(&img, &back).to_bits());
        prop_assert_eq!(psnr(&img, &back).to_bits(), ref_psnr(&img, &back).to_bits());
    }

    #[test]
    fn scene_matches_reference_on_random_sizes(
        w in 1usize..80,
        h in 1usize..80,
        seed in 0u64..1_000_000_000,
    ) {
        let got = synthetic_scene(w, h, &mut Rng::seed_from(seed));
        prop_assert_eq!(got, ref_scene(w, h, &mut Rng::seed_from(seed)));
    }
}
