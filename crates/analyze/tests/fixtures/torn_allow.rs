//! Fixture: annotation hygiene violations — a torn annotation (no
//! ` -- <reason>` clause) and a stale allow on a line that no longer
//! triggers its lint. Both must surface as `bad-annotation`.

// analyze: allow(determinism)
pub fn torn_target() -> u32 {
    7
}

pub fn stale_target() -> u32 {
    11 // analyze: allow(determinism) -- nothing on this line iterates a hash container anymore
}
