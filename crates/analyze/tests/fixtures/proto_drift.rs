//! Fixture: a miniature proto.rs whose opcode constants deliberately
//! drift from the paired wire doc: `OP_ORPHAN` has no table row, `0x04`
//! is documented under the wrong name, and the doc invents `0x03 GHOST`.

pub const OP_PING: u8 = 0x01;
pub const OP_ORPHAN: u8 = 0x02;
pub const OP_RENAMED: u8 = 0x04;
