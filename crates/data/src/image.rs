//! The image type: planar CHW `f32` in `[0, 1]`, with colour-space
//! conversion and portable-anymap writers for qualitative figures.

use scales_tensor::{Result, Tensor, TensorError};
use std::path::Path;

/// An RGB (or grayscale) image stored as a `[C, H, W]` tensor with values
/// nominally in `[0, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct Image {
    tensor: Tensor,
}

impl Image {
    /// Wrap a `[C, H, W]` tensor (`C` of 1 or 3).
    ///
    /// # Errors
    ///
    /// Returns an error for the wrong rank or channel count.
    pub fn from_tensor(tensor: Tensor) -> Result<Self> {
        if tensor.rank() != 3 {
            return Err(TensorError::RankMismatch { expected: 3, actual: tensor.rank(), op: "image" });
        }
        let c = tensor.shape()[0];
        if c != 1 && c != 3 {
            return Err(TensorError::InvalidArgument(format!("image needs 1 or 3 channels, got {c}")));
        }
        Ok(Self { tensor })
    }

    /// A black RGB image.
    #[must_use]
    pub fn zeros(height: usize, width: usize) -> Self {
        Self { tensor: Tensor::zeros(&[3, height, width]) }
    }

    /// Channel count.
    #[must_use]
    pub fn channels(&self) -> usize {
        self.tensor.shape()[0]
    }

    /// Image height in pixels.
    #[must_use]
    pub fn height(&self) -> usize {
        self.tensor.shape()[1]
    }

    /// Image width in pixels.
    #[must_use]
    pub fn width(&self) -> usize {
        self.tensor.shape()[2]
    }

    /// Borrow the underlying tensor.
    #[must_use]
    pub fn tensor(&self) -> &Tensor {
        &self.tensor
    }

    /// Mutably borrow the underlying tensor.
    pub fn tensor_mut(&mut self) -> &mut Tensor {
        &mut self.tensor
    }

    /// Consume into the underlying tensor.
    #[must_use]
    pub fn into_tensor(self) -> Tensor {
        self.tensor
    }

    /// Pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range coordinates.
    #[must_use]
    pub fn pixel(&self, c: usize, y: usize, x: usize) -> f32 {
        self.tensor.at(&[c, y, x])
    }

    /// Mutable pixel accessor.
    ///
    /// # Panics
    ///
    /// Panics for out-of-range coordinates.
    pub fn pixel_mut(&mut self, c: usize, y: usize, x: usize) -> &mut f32 {
        self.tensor.at_mut(&[c, y, x])
    }

    /// Clamp all values into `[0, 1]`.
    #[must_use]
    pub fn clamped(&self) -> Self {
        Self { tensor: self.tensor.map(|v| v.clamp(0.0, 1.0)) }
    }

    /// Luma (Y) plane of the ITU-R BT.601 YCbCr transform, as used by the
    /// standard SR evaluation protocol. Grayscale images return a copy.
    #[must_use]
    pub fn to_luma(&self) -> Tensor {
        let (h, w) = (self.height(), self.width());
        if self.channels() == 1 {
            return self.tensor.clone();
        }
        let mut y = Tensor::zeros(&[1, h, w]);
        for yy in 0..h {
            for xx in 0..w {
                let r = self.pixel(0, yy, xx);
                let g = self.pixel(1, yy, xx);
                let b = self.pixel(2, yy, xx);
                // BT.601 full-range luma.
                *y.at_mut(&[0, yy, xx]) = 0.299 * r + 0.587 * g + 0.114 * b;
            }
        }
        y
    }

    /// Crop a window `(top, left, height, width)`.
    ///
    /// # Errors
    ///
    /// Returns an error when the window exceeds the image.
    pub fn crop(&self, top: usize, left: usize, height: usize, width: usize) -> Result<Self> {
        let t = self
            .tensor
            .slice_axis(1, top, height)?
            .slice_axis(2, left, width)?;
        Ok(Self { tensor: t })
    }

    /// Write as binary PPM (RGB) or PGM (grayscale), 8-bit.
    ///
    /// # Errors
    ///
    /// Returns an I/O error when the file cannot be written.
    pub fn save_pnm(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, crate::codec::encode_pnm(self))
    }

    /// Stack images horizontally with a 2-pixel white gutter (for the
    /// Fig. 1 / Fig. 9 side-by-side panels).
    ///
    /// # Errors
    ///
    /// Returns an error when heights or channel counts differ.
    pub fn hstack(images: &[&Image]) -> Result<Image> {
        let first = images.first().ok_or_else(|| {
            TensorError::InvalidArgument("hstack of zero images".into())
        })?;
        let gutter = 2;
        let h = first.height();
        let c = first.channels();
        let total_w: usize =
            images.iter().map(|i| i.width()).sum::<usize>() + gutter * (images.len() - 1);
        let mut out = Tensor::ones(&[c, h, total_w]);
        let mut x0 = 0;
        for img in images {
            if img.height() != h || img.channels() != c {
                return Err(TensorError::ShapeMismatch {
                    lhs: first.tensor.shape().to_vec(),
                    rhs: img.tensor.shape().to_vec(),
                    op: "hstack",
                });
            }
            for ci in 0..c {
                for y in 0..h {
                    for x in 0..img.width() {
                        *out.at_mut(&[ci, y, x0 + x]) = img.pixel(ci, y, x);
                    }
                }
            }
            x0 += img.width() + gutter;
        }
        Image::from_tensor(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates() {
        assert!(Image::from_tensor(Tensor::zeros(&[3, 4, 4])).is_ok());
        assert!(Image::from_tensor(Tensor::zeros(&[2, 4, 4])).is_err());
        assert!(Image::from_tensor(Tensor::zeros(&[4, 4])).is_err());
    }

    #[test]
    fn luma_weights_sum_to_one() {
        let mut img = Image::zeros(2, 2);
        for c in 0..3 {
            for y in 0..2 {
                for x in 0..2 {
                    *img.pixel_mut(c, y, x) = 1.0;
                }
            }
        }
        let y = img.to_luma();
        for &v in y.data() {
            assert!((v - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn crop_window() {
        let mut img = Image::zeros(4, 4);
        *img.pixel_mut(0, 2, 3) = 0.5;
        let c = img.crop(2, 3, 1, 1).unwrap();
        assert_eq!(c.height(), 1);
        assert_eq!(c.width(), 1);
        assert_eq!(c.pixel(0, 0, 0), 0.5);
    }

    #[test]
    fn hstack_widths_add_with_gutters() {
        let a = Image::zeros(3, 4);
        let b = Image::zeros(3, 5);
        let s = Image::hstack(&[&a, &b]).unwrap();
        assert_eq!(s.width(), 4 + 2 + 5);
        assert_eq!(s.height(), 3);
    }

    #[test]
    fn save_pnm_writes_header() {
        let img = Image::zeros(2, 3);
        let dir = std::env::temp_dir().join("scales_test_img.ppm");
        img.save_pnm(&dir).unwrap();
        let bytes = std::fs::read(&dir).unwrap();
        assert!(bytes.starts_with(b"P6\n3 2\n255\n"));
        assert_eq!(bytes.len(), 11 + 18);
        let _ = std::fs::remove_file(dir);
    }

    #[test]
    fn a_saved_rgb_file_is_the_wire_ppm() {
        let mut img = Image::zeros(3, 5);
        for (i, v) in img.tensor_mut().data_mut().iter_mut().enumerate() {
            // Out-of-range values on both sides exercise the clamp.
            *v = i as f32 / 30.0 - 0.2;
        }
        let path = std::env::temp_dir().join("scales_test_img_wire.ppm");
        img.save_pnm(&path).unwrap();
        let saved = std::fs::read(&path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(saved, crate::codec::encode_ppm(&img).unwrap());
    }
}
