//! Readers and writers for multi-layer graphs.
//!
//! * [`edge_list`] — the plain-text `src dst layer` format (one record per
//!   line, `#` comments), the format we use for dataset files on disk.
//! * [`binary`] — a compact little-endian binary snapshot built on
//!   [`bytes`], suitable for caching generated datasets between experiment
//!   runs.

pub mod binary;
pub mod edge_list;

pub use binary::{checksum64, frame, read_binary, unframe, write_binary};
pub use edge_list::{parse_edge_list, read_edge_list, write_edge_list};
