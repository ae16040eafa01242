//! The two kinds of receive path in the paper's Fig. 1. Everything else
//! the five organizations differ by is a cost (`world::costs`); these
//! differ in mechanism, keep their bookkeeping on `Host` private, and do
//! not import each other.

pub(super) mod monolithic;
pub(crate) mod userlib;
