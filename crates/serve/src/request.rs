//! The request/response pair of the serving API.

use crate::engine::Precision;
use crate::tile::TilePolicy;
use scales_data::Image;
use scales_telemetry::RuntimeStamps;
use scales_tensor::backend::Backend;
use scales_tensor::SimdLevel;
use std::time::{Duration, Instant};

/// A unit of serving work: one or more LR images, with optional
/// per-request overrides of the engine defaults.
#[derive(Clone)]
pub struct SrRequest {
    images: Vec<Image>,
    tile: Option<TilePolicy>,
    tenant: Option<String>,
    deadline: Option<Instant>,
}

impl SrRequest {
    /// Request super-resolution of a single image.
    #[must_use]
    pub fn single(image: Image) -> Self {
        Self::batch(vec![image])
    }

    /// Request super-resolution of a set of images. Sizes may be mixed;
    /// the session forwards each image on its own, in request order.
    #[must_use]
    pub fn batch(images: Vec<Image>) -> Self {
        Self { images, tile: None, tenant: None, deadline: None }
    }

    /// Override the engine's tile policy for this request only.
    #[must_use]
    pub fn tile_policy(mut self, policy: TilePolicy) -> Self {
        self.tile = Some(policy);
        self
    }

    /// Tag this request with a tenant name. The `scales-runtime`
    /// admission controller queues each tenant in its own lane — with a
    /// weighted round-robin dequeue and an optional per-tenant quota —
    /// so one hot tenant cannot monopolize the worker pool. Untagged
    /// requests share an anonymous lane.
    #[must_use]
    pub fn tenant(mut self, tenant: impl Into<String>) -> Self {
        self.tenant = Some(tenant.into());
        self
    }

    /// Give this request an absolute deadline. The runtime refuses a
    /// request whose deadline has already passed, expires it while
    /// queued instead of dispatching it late, and schedules
    /// deadline-tagged work earliest-deadline-first.
    #[must_use]
    pub fn deadline_at(mut self, deadline: Instant) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Give this request a deadline relative to now. See
    /// [`deadline_at`](Self::deadline_at). A budget too far out to
    /// represent as an `Instant` (`Duration::MAX`) is no deadline at all.
    #[must_use]
    pub fn deadline_in(mut self, budget: Duration) -> Self {
        self.deadline = Instant::now().checked_add(budget);
        self
    }

    /// The requested images.
    #[must_use]
    pub fn images(&self) -> &[Image] {
        &self.images
    }

    /// The tenant tag, if the request carries one.
    #[must_use]
    pub fn tenant_tag(&self) -> Option<&str> {
        self.tenant.as_deref()
    }

    /// The absolute deadline, if the request carries one.
    #[must_use]
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }

    /// Decompose into the owned images and the per-request tile override,
    /// without copying the payloads (the `scales-runtime` queue holds a
    /// request this way between submission and its dispatch).
    #[must_use]
    pub fn into_parts(self) -> (Vec<Image>, Option<TilePolicy>) {
        (self.images, self.tile)
    }
}

/// How a request was executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InferStats {
    /// Images served.
    pub images: usize,
    /// Images that went through the split → forward → stitch path.
    pub tiled: usize,
    /// Backend the work ran under.
    pub backend: Backend,
    /// CPU SIMD level the backend's kernel dispatched at
    /// ([`SimdLevel::None`] for the scalar kernel, the detected feature
    /// level for the simd kernel).
    pub simd: SimdLevel,
    /// Precision the work ran at.
    pub precision: Precision,
    /// Execution plans built during this request (one per input shape the
    /// session had not served before; always 0 on the training path).
    pub plans_built: usize,
    /// Forwards that reused an already-built plan — the session's
    /// workspace served them with zero steady-state allocation.
    pub plan_reuses: usize,
}

/// The super-resolved images of one request, in request order.
pub struct SrResponse {
    pub(crate) images: Vec<Image>,
    pub(crate) stats: InferStats,
    pub(crate) stamps: Option<RuntimeStamps>,
}

impl SrResponse {
    /// Assemble a response from already-served images and their execution
    /// stats, without a forward. No serving path calls it: sessions build
    /// their responses internally. It stays public for the `scales-runtime`
    /// unit tests (the queue's model check and the ticket tests), which
    /// resolve tickets by the thousand without running a network; a
    /// `#[cfg(test)]` constructor here would not be compiled for another
    /// crate's tests, and a cargo feature to expose one is a knob this
    /// workspace does without.
    #[must_use]
    pub fn from_parts(images: Vec<Image>, stats: InferStats) -> Self {
        Self { images, stats, stamps: None }
    }

    /// Attach the runtime's stage stamps. The `scales-runtime` dispatcher
    /// sets these on every response it resolves so the submitter can
    /// attribute queue wait, dispatch set-up, and the forward without a
    /// side channel.
    #[must_use]
    pub fn with_stamps(mut self, stamps: RuntimeStamps) -> Self {
        self.stamps = Some(stamps);
        self
    }

    /// The runtime's stage stamps, when this response crossed the
    /// concurrent runtime (`None` for a direct
    /// [`Session::infer`](crate::Session::infer)).
    #[must_use]
    pub fn stamps(&self) -> Option<RuntimeStamps> {
        self.stamps
    }

    /// The SR images, index-aligned with the request's images.
    #[must_use]
    pub fn images(&self) -> &[Image] {
        &self.images
    }

    /// Consume the response, keeping only the SR images.
    #[must_use]
    pub fn into_images(self) -> Vec<Image> {
        self.images
    }

    /// Execution breakdown for this request.
    #[must_use]
    pub fn stats(&self) -> InferStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_budget_past_the_clock_is_no_deadline() {
        let request = SrRequest::single(Image::zeros(2, 2));
        assert_eq!(request.clone().deadline_in(Duration::MAX).deadline(), None);
        // It also lifts a deadline set before it.
        let lifted = request.clone().deadline_at(Instant::now()).deadline_in(Duration::MAX);
        assert_eq!(lifted.deadline(), None);
        let before = Instant::now();
        let bounded = request.deadline_in(Duration::from_secs(1)).deadline().expect("bounded");
        assert!(bounded >= before + Duration::from_secs(1));
    }
}
