//! The splitting entry point that takes no configuration.
//!
//! Every component is split by one monolithic plane sweep
//! ([`crate::split::split_segments`]); parallelism lives only at the
//! component level ([`crate::parallel`]). This module keeps the one name
//! external callers use for "split these segments the way the builder does".

use crate::split::{SubSegment, TaggedSegment};

/// Split segments at their mutual intersections exactly as a component build
/// does: one plane sweep, identical to [`crate::split::split_segments`].
pub fn split_segments_auto(segments: &[TaggedSegment]) -> Vec<SubSegment> {
    crate::split::split_segments(segments)
}
