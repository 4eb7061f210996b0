//! A small grayscale image library: synthetic scenes, bilinear scaling,
//! MSE/PSNR.
//!
//! The case study trades image *scaling level* against schedulability:
//! smaller images are cheaper to process locally and to transmit, but
//! lose information. Quality is quantified as the PSNR between the
//! original image and the down-scaled-then-up-scaled one — exactly the
//! quantity Table 1 reports per level.

use rto_stats::Rng;

/// An 8-bit grayscale image.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Image {
    width: usize,
    height: usize,
    pixels: Vec<u8>,
}

impl Image {
    /// Creates a black image.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        Image {
            width,
            height,
            pixels: vec![0; width * height],
        }
    }

    /// Creates an image from raw pixels (row-major).
    ///
    /// # Panics
    ///
    /// Panics if `pixels.len() != width * height` or a dimension is zero.
    pub fn from_pixels(width: usize, height: usize, pixels: Vec<u8>) -> Self {
        assert!(width > 0 && height > 0, "image dimensions must be positive");
        assert_eq!(pixels.len(), width * height, "pixel count mismatch");
        Image {
            width,
            height,
            pixels,
        }
    }

    /// Image width in pixels.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height in pixels.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Raw row-major pixels.
    pub fn pixels(&self) -> &[u8] {
        &self.pixels
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> u8 {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x]
    }

    /// Sets the pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics when out of bounds.
    #[inline]
    pub fn set(&mut self, x: usize, y: usize, v: u8) {
        assert!(x < self.width && y < self.height, "pixel out of bounds");
        self.pixels[y * self.width + x] = v;
    }

    /// Size in bytes when transmitted raw (the payload model for the
    /// offload request).
    pub fn payload_bytes(&self) -> u64 {
        u64::try_from(self.pixels.len()).unwrap_or(u64::MAX)
    }

    /// Bilinearly resizes to `(new_width, new_height)`.
    ///
    /// Separable: the column taps are computed once, each source row is
    /// blended horizontally at most once into one of two scratch rows,
    /// and each target pixel is one vertical blend of those rows. Every
    /// product and sum is the one a per-pixel bilinear sample computes,
    /// in the same order, so the output is bit-identical to it.
    ///
    /// # Panics
    ///
    /// Panics if either target dimension is zero.
    pub fn resize(&self, new_width: usize, new_height: usize) -> Image {
        assert!(
            new_width > 0 && new_height > 0,
            "target dimensions must be positive"
        );
        let cols: Vec<Tap> = axis_taps(self.width, new_width).collect();
        let mut out = Image::new(new_width, new_height);
        // Source rows y0 and y1 of the current target row, blended
        // horizontally; `usize::MAX` marks a row not yet filled.
        let (mut top, mut bottom) = (vec![0.0; new_width], vec![0.0; new_width]);
        let (mut top_y, mut bottom_y) = (usize::MAX, usize::MAX);
        let rows = axis_taps(self.height, new_height);
        for ((y0, y1, dy), out_row) in rows.zip(out.pixels.chunks_exact_mut(new_width)) {
            if top_y != y0 {
                if bottom_y == y0 {
                    std::mem::swap(&mut top, &mut bottom);
                    bottom_y = top_y;
                } else {
                    self.blend_row(y0, &cols, &mut top);
                }
                top_y = y0;
            }
            if bottom_y != y1 {
                self.blend_row(y1, &cols, &mut bottom);
                bottom_y = y1;
            }
            for ((o, &t), &b) in out_row.iter_mut().zip(&top).zip(&bottom) {
                *o = round_to_u8(t * (1.0 - dy) + b * dy);
            }
        }
        out
    }

    /// Blends source row `y` horizontally at the column taps into `dst`.
    fn blend_row(&self, y: usize, cols: &[Tap], dst: &mut [f64]) {
        let start = y * self.width;
        // analyze: allow(L3): axis_taps yields y < height, so the row lies within pixels
        let src = &self.pixels[start..start + self.width];
        for (h, &(x0, x1, dx)) in dst.iter_mut().zip(cols) {
            // analyze: allow(L3): axis_taps yields x0 <= x1 < width
            *h = src[x0] as f64 * (1.0 - dx) + src[x1] as f64 * dx;
        }
    }

    /// Scales by a factor in `(0, 1]` and back up, returning the
    /// quality-degraded image at the original size — the case study's
    /// "scaling level" operation.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is not in `(0, 1]`.
    pub fn degrade(&self, factor: f64) -> Image {
        assert!(
            factor > 0.0 && factor <= 1.0,
            "scale factor must be in (0, 1]"
        );
        let w = ((self.width as f64 * factor)
            .round()
            .clamp(0.0, u64::MAX as f64) as usize)
            .max(1);
        let h = ((self.height as f64 * factor)
            .round()
            .clamp(0.0, u64::MAX as f64) as usize)
            .max(1);
        if w == self.width && h == self.height {
            return self.clone();
        }
        self.resize(w, h).resize(self.width, self.height)
    }

    /// Shifts the image content `dx` pixels to the right (used to
    /// synthesize stereo pairs and motion frames); vacated pixels repeat
    /// the edge column.
    pub fn shift_right(&self, dx: usize) -> Image {
        let d = dx.min(self.width);
        let mut out = Image::new(self.width, self.height);
        let rows = out.pixels.chunks_exact_mut(self.width);
        for (dst, src) in rows.zip(self.pixels.chunks_exact(self.width)) {
            let (edge, body) = dst.split_at_mut(d);
            let (kept, _) = src.split_at(self.width - d);
            body.copy_from_slice(kept);
            edge.fill(src.first().copied().unwrap_or_default());
        }
        out
    }

    /// Shifts the image content `dx` pixels to the left — what the right
    /// camera of a stereo pair sees for objects at disparity `dx`;
    /// vacated pixels repeat the edge column.
    pub fn shift_left(&self, dx: usize) -> Image {
        let d = dx.min(self.width);
        let mut out = Image::new(self.width, self.height);
        let rows = out.pixels.chunks_exact_mut(self.width);
        for (dst, src) in rows.zip(self.pixels.chunks_exact(self.width)) {
            let (body, edge) = dst.split_at_mut(self.width - d);
            let (_, kept) = src.split_at(d);
            body.copy_from_slice(kept);
            edge.fill(src.last().copied().unwrap_or_default());
        }
        out
    }
}

/// One bilinear tap along an axis: the two source neighbours and the
/// weight of the second.
type Tap = (usize, usize, f64);

/// The taps of `dst_len` target pixels sampling `src_len` source pixels
/// at the source-space centre of each target pixel.
fn axis_taps(src_len: usize, dst_len: usize) -> impl Iterator<Item = Tap> {
    let scale = src_len as f64 / dst_len as f64;
    let last = src_len - 1;
    (0..dst_len).map(move |i| {
        let f = ((i as f64 + 0.5) * scale - 0.5).clamp(0.0, last as f64);
        let i0 = f.floor().clamp(0.0, u64::MAX as f64) as usize;
        (i0, i0.saturating_add(1).min(last), f - i0 as f64)
    })
}

/// `v.round().clamp(0.0, 255.0) as u8`, bit for bit, without the libm
/// `round` call baseline x86-64 makes. On `[0, 255]` truncation is the
/// floor and `v - floor` is exact, so adding one at a fraction `>= 0.5`
/// rounds half away from zero; clamping first changes no result, and a
/// NaN maps to 0 either way.
#[inline]
fn round_to_u8(v: f64) -> u8 {
    let v = v.clamp(0.0, 255.0);
    let w = v as u8;
    w + u8::from(v - f64::from(w) >= 0.5)
}

/// Mean squared error between two same-sized images.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn mse(a: &Image, b: &Image) -> f64 {
    assert_eq!(
        (a.width, a.height),
        (b.width, b.height),
        "MSE of differently-sized images"
    );
    // Exact in integers; the f64 sum of the same squares is exact too
    // while it stays below 2^53, so the quotient is the same.
    let sum: u64 = a
        .pixels
        .iter()
        .zip(&b.pixels)
        .map(|(&p, &q)| u64::from(p.abs_diff(q)).pow(2))
        .sum();
    sum as f64 / a.pixels.len() as f64
}

/// Peak signal-to-noise ratio between two same-sized 8-bit images, in dB.
///
/// Identical images yield the conventional cap of 99 dB — the same
/// sentinel Table 1 prints for the lossless level.
///
/// # Panics
///
/// Panics on dimension mismatch.
pub fn psnr(reference: &Image, candidate: &Image) -> f64 {
    let e = mse(reference, candidate);
    // MSE is non-negative; ordered comparison avoids f64 equality.
    if e <= 0.0 {
        return 99.0;
    }
    let p = 10.0 * (255.0f64 * 255.0 / e).log10();
    p.min(99.0)
}

/// Generates a synthetic textured scene: smooth gradient background,
/// random bright elliptical blobs, and mild pixel noise. Deterministic
/// given the RNG state.
pub fn synthetic_scene(width: usize, height: usize, rng: &mut Rng) -> Image {
    let mut img = Image::new(width, height);
    // Gradient background.
    for (y, row) in img.pixels.chunks_exact_mut(width).enumerate() {
        for (x, p) in row.iter_mut().enumerate() {
            let g = 40.0 + 80.0 * (x as f64 / width as f64) + 40.0 * (y as f64 / height as f64);
            *p = g.clamp(0.0, 255.0) as u8;
        }
    }
    // Blobs: foreground structure that scaling degrades. Each blob is
    // drawn over its bounding box only; the `d2 < 1` test still decides.
    let blobs = 6 + rng.usize_below(6);
    for _ in 0..blobs {
        let cx = rng.usize_below(width) as f64;
        let cy = rng.usize_below(height) as f64;
        let rx = 4.0 + rng.f64() * (width as f64 / 8.0);
        let ry = 4.0 + rng.f64() * (height as f64 / 8.0);
        let brightness = 120.0 + rng.f64() * 135.0;
        let (x_lo, x_hi) = blob_span(cx, rx, width);
        let (y_lo, y_hi) = blob_span(cy, ry, height);
        let rows = img.pixels.chunks_exact_mut(width).enumerate();
        for (y, row) in rows.take(y_hi).skip(y_lo) {
            for (x, p) in row.iter_mut().enumerate().take(x_hi).skip(x_lo) {
                let nx = (x as f64 - cx) / rx;
                let ny = (y as f64 - cy) / ry;
                let d2 = nx * nx + ny * ny;
                if d2 < 1.0 {
                    let v = *p as f64;
                    let blended = v + (brightness - v) * (1.0 - d2);
                    *p = blended.clamp(0.0, 255.0) as u8;
                }
            }
        }
    }
    // Mild sensor noise.
    for p in &mut img.pixels {
        let noise = (rng.f64() - 0.5) * 12.0;
        *p = (*p as f64 + noise).clamp(0.0, 255.0) as u8;
    }
    img
}

/// The pixel range `lo..hi` along one axis that covers a blob centred
/// at `c` with radius `r`. A pixel `i` with `|i - c| >= r` has
/// `|(i - c) / r| >= 1` after rounding, so `d2 >= 1`; every pixel the
/// blob touches thus has `c - r < i < c + r`, which `lo..hi` covers
/// with room for rounding in `c ± r`.
fn blob_span(c: f64, r: f64, len: usize) -> (usize, usize) {
    let lo = (c - r).floor().clamp(0.0, u64::MAX as f64) as usize;
    let hi = ((c + r).ceil() + 1.0).clamp(0.0, u64::MAX as f64) as usize;
    (lo, hi.min(len))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scene(seed: u64) -> Image {
        synthetic_scene(120, 90, &mut Rng::seed_from(seed))
    }

    #[test]
    fn construction_and_access() {
        let mut img = Image::new(4, 3);
        assert_eq!(img.width(), 4);
        assert_eq!(img.height(), 3);
        assert_eq!(img.payload_bytes(), 12);
        img.set(2, 1, 200);
        assert_eq!(img.get(2, 1), 200);
        let raw = Image::from_pixels(2, 2, vec![1, 2, 3, 4]);
        assert_eq!(raw.get(1, 1), 4);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn get_out_of_bounds_panics() {
        Image::new(2, 2).get(2, 0);
    }

    #[test]
    #[should_panic(expected = "pixel count mismatch")]
    fn from_pixels_validates() {
        Image::from_pixels(2, 2, vec![0; 3]);
    }

    #[test]
    fn resize_identity_roundtrip() {
        let img = scene(1);
        let same = img.resize(img.width(), img.height());
        // Identity resize: bilinear at pixel centers reproduces pixels.
        assert_eq!(img, same);
    }

    #[test]
    fn degrade_full_factor_is_identity() {
        let img = scene(2);
        assert_eq!(img.degrade(1.0), img);
    }

    #[test]
    fn psnr_monotone_in_scale_factor() {
        // The crux of the case study: smaller scale ⇒ lower PSNR.
        let img = scene(3);
        let factors = [0.2, 0.4, 0.6, 0.8, 1.0];
        let psnrs: Vec<f64> = factors
            .iter()
            .map(|&f| psnr(&img, &img.degrade(f)))
            .collect();
        for w in psnrs.windows(2) {
            assert!(
                w[0] < w[1] + 1e-9,
                "PSNR not monotone: {psnrs:?} for {factors:?}"
            );
        }
        assert_eq!(*psnrs.last().unwrap(), 99.0); // lossless sentinel
        assert!(
            psnrs[0] > 10.0 && psnrs[0] < 45.0,
            "degraded PSNR {}",
            psnrs[0]
        );
    }

    #[test]
    fn mse_zero_for_identical() {
        let img = scene(4);
        assert_eq!(mse(&img, &img), 0.0);
        assert_eq!(psnr(&img, &img), 99.0);
    }

    #[test]
    #[should_panic(expected = "differently-sized")]
    fn mse_size_mismatch_panics() {
        mse(&Image::new(2, 2), &Image::new(3, 2));
    }

    #[test]
    fn shift_right_moves_content() {
        let mut img = Image::new(5, 1);
        img.set(0, 0, 100);
        let shifted = img.shift_right(2);
        assert_eq!(shifted.get(2, 0), 100);
        assert_eq!(shifted.get(0, 0), 100); // edge repeat
        assert_eq!(shifted.get(4, 0), 0);
    }

    #[test]
    fn shift_left_moves_content() {
        let img = Image::from_pixels(5, 2, vec![1, 2, 3, 4, 5, 6, 7, 8, 9, 10]);
        let shifted = img.shift_left(2);
        assert_eq!(shifted.pixels(), &[3, 4, 5, 5, 5, 8, 9, 10, 10, 10]); // edge repeat
        assert_eq!(img.shift_left(0), img);
        assert_eq!(
            img.shift_left(9).pixels(),
            &[5, 5, 5, 5, 5, 10, 10, 10, 10, 10]
        );
        assert_eq!(img.shift_right(9).pixels(), &[1, 1, 1, 1, 1, 6, 6, 6, 6, 6]);
    }

    #[test]
    fn scenes_are_deterministic_and_textured() {
        let a = scene(7);
        let b = scene(7);
        assert_eq!(a, b);
        let c = scene(8);
        assert_ne!(a, c);
        // Texture check: not flat.
        let min = a.pixels().iter().min().unwrap();
        let max = a.pixels().iter().max().unwrap();
        assert!(max - min > 50, "scene too flat: {min}..{max}");
    }
}
