//! Strongly-typed addresses and page geometry.
//!
//! Newtypes keep virtual and physical addresses from being confused — the
//! entire point of the paper is the hardware that converts one into the
//! other, so the type system should enforce which side of the TLB a value
//! lives on.

use std::fmt;

/// Base page size: 4 KiB, the size the paper focuses on (Section 5.2).
pub const PAGE_SHIFT: u32 = 12;
/// Bytes per 4 KiB page.
pub const PAGE_BYTES: u64 = 1 << PAGE_SHIFT;
/// Large page size: 2 MiB (Section 9).
pub const LARGE_PAGE_SHIFT: u32 = 21;
/// Bytes per 2 MiB page.
pub const LARGE_PAGE_BYTES: u64 = 1 << LARGE_PAGE_SHIFT;
/// 4 KiB frames per 2 MiB frame.
pub const FRAMES_PER_LARGE: u64 = 1 << (LARGE_PAGE_SHIFT - PAGE_SHIFT);

/// Page size of a mapping.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub enum PageSize {
    /// 4 KiB page, mapped at the PT (level-1) entry.
    #[default]
    Base4K,
    /// 2 MiB page, mapped at the PD (level-2) entry.
    Large2M,
}

impl PageSize {
    /// log2 of the page size in bytes.
    pub fn shift(self) -> u32 {
        match self {
            PageSize::Base4K => PAGE_SHIFT,
            PageSize::Large2M => LARGE_PAGE_SHIFT,
        }
    }

    /// Page size in bytes.
    pub fn bytes(self) -> u64 {
        1 << self.shift()
    }

    /// Mask selecting the in-page offset bits.
    pub fn offset_mask(self) -> u64 {
        self.bytes() - 1
    }

    /// Number of page-table levels a walk must traverse to reach the
    /// mapping: 4 for 4 KiB pages, 3 for 2 MiB pages.
    pub fn walk_levels(self) -> usize {
        match self {
            PageSize::Base4K => 4,
            PageSize::Large2M => 3,
        }
    }
}

impl fmt::Display for PageSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageSize::Base4K => write!(f, "4KB"),
            PageSize::Large2M => write!(f, "2MB"),
        }
    }
}

/// A virtual address in the unified CPU/GPU address space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct VAddr(u64);

impl VAddr {
    /// Wraps a raw 64-bit virtual address.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw address bits.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// This address plus a byte offset.
    pub const fn offset(self, bytes: u64) -> Self {
        Self(self.0 + bytes)
    }

    /// The 4 KiB virtual page number containing this address.
    pub const fn vpn(self) -> Vpn {
        Vpn(self.0 >> PAGE_SHIFT)
    }

    /// Offset within the 4 KiB page.
    pub const fn page_offset(self) -> u64 {
        self.0 & (PAGE_BYTES - 1)
    }

    /// The 128-byte cache-line index of this address (global).
    pub const fn line(self, line_shift: u32) -> u64 {
        self.0 >> line_shift
    }
}

impl fmt::Display for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "V:{:#x}", self.0)
    }
}

impl fmt::LowerHex for VAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A physical address (post-translation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PAddr(u64);

impl PAddr {
    /// Wraps a raw physical address.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw address bits.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// This address plus a byte offset.
    pub const fn offset(self, bytes: u64) -> Self {
        Self(self.0 + bytes)
    }

    /// The 4 KiB physical frame number containing this address.
    pub const fn ppn(self) -> Ppn {
        Ppn(self.0 >> PAGE_SHIFT)
    }

    /// The cache-line index of this address for a given line size.
    pub const fn line(self, line_shift: u32) -> u64 {
        self.0 >> line_shift
    }
}

impl fmt::Display for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P:{:#x}", self.0)
    }
}

impl fmt::LowerHex for PAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

/// A virtual page number (4 KiB granular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Vpn(u64);

impl Vpn {
    /// Wraps a raw virtual page number.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw page number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// First byte of the page.
    pub const fn base(self) -> VAddr {
        VAddr(self.0 << PAGE_SHIFT)
    }

    /// The 9-bit page-table index for radix `level` (4 = PML4 … 1 = PT),
    /// exactly as x86-64 slices the virtual address (bits 47–39 for PML4
    /// down to bits 20–12 for the PT).
    pub const fn index(self, level: u32) -> usize {
        debug_assert!(level >= 1 && level <= 4);
        ((self.0 >> (9 * (level - 1))) & 0x1ff) as usize
    }

    /// The containing 2 MiB-aligned virtual page number (for large-page
    /// coalescing: bits below the PD index dropped).
    pub const fn large(self) -> Vpn {
        Vpn(self.0 & !(FRAMES_PER_LARGE - 1))
    }
}

impl fmt::Display for Vpn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vpn:{:#x}", self.0)
    }
}

/// A physical page (frame) number (4 KiB granular).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct Ppn(u64);

impl Ppn {
    /// Wraps a raw frame number.
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// The raw frame number.
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// First byte of the frame.
    pub const fn base(self) -> PAddr {
        PAddr(self.0 << PAGE_SHIFT)
    }
}

impl fmt::Display for Ppn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ppn:{:#x}", self.0)
    }
}

use gmmu_sim::codec::{Codec, CodecError, Loader, Saver};

macro_rules! codec_addr {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            fn save(&self, w: &mut Saver) {
                w.u64(self.0);
            }
            fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
                self.0 = r.u64()?;
                Ok(())
            }
        }
    )*};
}

codec_addr!(VAddr, PAddr, Vpn, Ppn);

impl Codec for PageSize {
    fn save(&self, w: &mut Saver) {
        w.u8(match self {
            PageSize::Base4K => 0,
            PageSize::Large2M => 1,
        });
    }
    fn load(&mut self, r: &mut Loader<'_>) -> Result<(), CodecError> {
        *self = match r.u8()? {
            0 => PageSize::Base4K,
            1 => PageSize::Large2M,
            _ => return Err(CodecError::Corrupt("unknown page size tag")),
        };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vaddr_decomposition() {
        let va = VAddr::new(0x1234_5678);
        assert_eq!(va.vpn().raw(), 0x12345);
        assert_eq!(va.page_offset(), 0x678);
        assert_eq!(va.vpn().base().offset(va.page_offset()), va);
    }

    #[test]
    fn page_table_indices_match_x86_layout() {
        // The paper's Figure 8 example: pages written as 9-bit index
        // groups (l4, l3, l2, l1).
        let vpn = Vpn::new((0xb9 << 27) | (0x0c << 18) | (0xac << 9) | 0x03);
        assert_eq!(vpn.index(4), 0xb9);
        assert_eq!(vpn.index(3), 0x0c);
        assert_eq!(vpn.index(2), 0xac);
        assert_eq!(vpn.index(1), 0x03);
    }

    #[test]
    fn large_page_rounds_down() {
        let vpn = Vpn::new(0x12345);
        assert_eq!(vpn.large().raw(), 0x12345 & !0x1ff);
        assert_eq!(vpn.large().large(), vpn.large());
    }

    #[test]
    fn page_size_geometry() {
        assert_eq!(PageSize::Base4K.bytes(), 4096);
        assert_eq!(PageSize::Large2M.bytes(), 2 * 1024 * 1024);
        assert_eq!(PageSize::Base4K.walk_levels(), 4);
        assert_eq!(PageSize::Large2M.walk_levels(), 3);
        assert_eq!(PageSize::Large2M.offset_mask(), (1 << 21) - 1);
    }

    #[test]
    fn line_indexing() {
        let va = VAddr::new(256);
        assert_eq!(va.line(7), 2); // 128-byte lines
        let pa = PAddr::new(255);
        assert_eq!(pa.line(7), 1);
    }

    #[test]
    fn ppn_roundtrip() {
        let pa = PAddr::new(0xdead_b000);
        assert_eq!(pa.ppn().base(), PAddr::new(0xdead_b000));
        assert_eq!(pa.offset(0x123).ppn(), pa.ppn());
    }
}
