//! [`InferModel`] — the object-safe model handle the serving layer
//! (`scales-serve`) is built on.
//!
//! Both network kinds implement it:
//!
//! * every training-path [`SrNetwork`] (blanket impl, including
//!   `dyn SrNetwork` and `Box<dyn SrNetwork>` targets), forwarding through
//!   a fresh autograd tape per call;
//! * the packed [`DeployedNetwork`], forwarding through the tape-free
//!   deployed op graph.
//!
//! This lets one engine accept "any model" without a generic parameter per
//! network family, and lets the engine decide at build time whether to
//! lower ([`InferModel::try_lower`]) or serve the model as-is.

use crate::common::SrNetwork;
use crate::deploy::DeployedNetwork;
use scales_autograd::Var;
use scales_tensor::{Result, Tensor, TensorError};

/// An object-safe handle over anything that can serve batched SR
/// inference: a training-path network or a lowered deployment graph.
///
/// `Send + Sync` is a supertrait so a `Box<dyn InferModel>` — and
/// therefore a serving `Engine` holding one — can be shared across
/// threads: the `scales-runtime` worker pool hands one engine to every
/// worker by reference. Both model kinds satisfy it structurally
/// (deployed graphs are plain data; training networks hold their
/// parameters behind `Arc<RwLock>` tape nodes).
pub trait InferModel: Send + Sync {
    /// Upscaling factor.
    fn scale(&self) -> usize;

    /// Forward an input batch `[N, 3, H, W]` to `[N, 3, H·s, W·s]`.
    ///
    /// # Errors
    ///
    /// Propagates forward/geometry errors.
    fn forward_infer(&self, batch: &Tensor) -> Result<Tensor>;

    /// Lower to the packed deployment graph, if this model supports it.
    ///
    /// # Errors
    ///
    /// Returns an error for models that already *are* deployed graphs,
    /// and propagates [`SrNetwork::lower`]'s (every in-tree architecture
    /// lowers).
    fn try_lower(&self) -> Result<DeployedNetwork>;

    /// The deployed op graph behind this handle, when it is one — the hook
    /// the serving layer uses to route pre-lowered models through the
    /// planned zero-allocation executor
    /// ([`DeployedNetwork::forward_planned`]).
    fn as_deployed(&self) -> Option<&DeployedNetwork> {
        None
    }
}

impl<T: SrNetwork + ?Sized> InferModel for T {
    fn scale(&self) -> usize {
        SrNetwork::scale(self)
    }

    fn forward_infer(&self, batch: &Tensor) -> Result<Tensor> {
        Ok(self.forward(&Var::new(batch.clone()))?.value())
    }

    fn try_lower(&self) -> Result<DeployedNetwork> {
        self.lower()
    }
}

impl InferModel for DeployedNetwork {
    fn scale(&self) -> usize {
        DeployedNetwork::scale(self)
    }

    fn forward_infer(&self, batch: &Tensor) -> Result<Tensor> {
        self.forward(batch)
    }

    fn try_lower(&self) -> Result<DeployedNetwork> {
        Err(TensorError::InvalidArgument("model is already a deployed network".into()))
    }

    fn as_deployed(&self) -> Option<&DeployedNetwork> {
        Some(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{srresnet, SrConfig};
    use scales_core::Method;
    use scales_nn::Module as _;

    fn probe(h: usize, w: usize) -> Tensor {
        Tensor::from_vec(
            (0..3 * h * w).map(|i| ((i as f32) * 0.13).cos() * 0.4 + 0.5).collect(),
            &[1, 3, h, w],
        )
        .unwrap()
    }

    /// Compile-time audit of the serving layer's threading contract:
    /// every model handle — training networks, boxed registry handles,
    /// deployed graphs, and the trait objects over them — must be
    /// `Send + Sync`, so `&Engine` (which boxes a `dyn InferModel`) is
    /// `Send` and one engine can feed a whole worker pool.
    #[test]
    fn engine_surface_is_send_and_sync() {
        fn assert_send<T: Send + ?Sized>() {}
        fn assert_sync<T: Sync + ?Sized>() {}
        assert_send::<DeployedNetwork>();
        assert_sync::<DeployedNetwork>();
        assert_send::<Box<dyn crate::SrNetwork>>();
        assert_sync::<Box<dyn crate::SrNetwork>>();
        assert_send::<Box<dyn InferModel>>();
        assert_sync::<Box<dyn InferModel>>();
        assert_send::<&dyn InferModel>();
    }

    #[test]
    fn training_network_serves_through_the_trait_object() {
        let net =
            srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 3 })
                .unwrap();
        let model: &dyn InferModel = &net;
        assert_eq!(model.scale(), 2);
        assert!(model.as_deployed().is_none());
        let x = probe(6, 6);
        let y = model.forward_infer(&x).unwrap();
        assert_eq!(y.shape(), &[1, 3, 12, 12]);
        // Identical to the direct training forward.
        let reference = net.forward(&Var::new(x.clone())).unwrap().value();
        assert_eq!(y.data(), reference.data());
    }

    #[test]
    fn deployed_network_serves_through_the_trait_object() {
        let net =
            srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 4 })
                .unwrap();
        let deployed = net.lower().unwrap();
        let model: &dyn InferModel = &deployed;
        assert!(model.as_deployed().is_some());
        assert!(model.try_lower().is_err(), "a deployed graph cannot lower again");
        let x = probe(6, 6);
        assert_eq!(model.forward_infer(&x).unwrap().data(), deployed.forward(&x).unwrap().data());
    }

    #[test]
    fn lowering_through_the_trait_matches_direct_lowering() {
        let net =
            srresnet(SrConfig { channels: 8, blocks: 1, scale: 2, method: Method::scales(), seed: 5 })
                .unwrap();
        let model: &dyn InferModel = &net;
        let lowered = model.try_lower().unwrap();
        let x = probe(6, 6);
        assert_eq!(
            lowered.forward(&x).unwrap().data(),
            net.lower().unwrap().forward(&x).unwrap().data()
        );
    }
}
