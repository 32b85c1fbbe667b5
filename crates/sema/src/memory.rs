//! The SMT memory model (paper §4).
//!
//! Memory is a set of *blocks*, each identified by a block id (`bid`);
//! pointers are `bid ++ offset` bit-vector concatenations. Block contents
//! are byte-granular: each byte is tagged as pointer or non-pointer and
//! carries an 8-bit poison mask (non-pointer bytes) or a pointer payload
//! plus fragment index (pointer bytes). Multi-byte accesses split into
//! byte operations. Because loops are unrolled before encoding, the number
//! of blocks and stores is statically bounded, and loads resolve through
//! read-over-write `ite` chains instead of SMT arrays.

use crate::config::EncodeConfig;
use crate::value::ScalarVal;
use alive2_ir::types::Type;
use alive2_smt::term::{Ctx, FuncId, Sort, TermId};
use std::collections::BTreeSet;

/// How a block came to exist.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BlockKind {
    /// The null block (bid 0, size 0).
    Null,
    /// A global variable.
    Global,
    /// A hypothetical block a pointer argument may refer to.
    Arg,
    /// A stack allocation (`alloca`).
    Stack,
    /// A heap allocation (`malloc` & friends).
    Heap,
}

/// Static and symbolic per-block information.
#[derive(Clone, Debug)]
pub struct BlockInfo {
    /// Provenance.
    pub kind: BlockKind,
    /// Size in bytes (an `off_bits`-wide term; may be symbolic for `Arg`
    /// and `Heap` blocks).
    pub size: TermId,
    /// Read-only blocks reject stores with UB (e.g. `constant` globals).
    pub read_only: bool,
    /// Condition under which the block has been allocated.
    pub allocated: TermId,
    /// Condition under which the block has been freed (grows as `free`
    /// calls are encoded).
    pub freed: TermId,
    /// Initial contents: packed byte terms, or `None` for
    /// unknown/uninitialized memory.
    pub init: Option<Vec<TermId>>,
    /// Display name for diagnostics.
    pub name: String,
}

/// Packs and unpacks the single-term byte representation.
///
/// Layout (low → high): `value:8 | poison_mask:8 | is_ptr:1 | frag:3 |
/// ptr_payload:ptr_bits`.
#[derive(Clone, Copy, Debug)]
pub struct ByteCodec {
    /// Width of pointer payloads (`bid_bits + off_bits`).
    pub ptr_bits: u32,
}

impl ByteCodec {
    /// Total packed width.
    pub fn width(self) -> u32 {
        20 + self.ptr_bits
    }

    /// A defined or poisoned numeric byte.
    pub fn pack_num(self, ctx: &Ctx, value: TermId, poison_mask: TermId) -> TermId {
        let rest = ctx.bv_lit_u64(4 + self.ptr_bits, 0);
        ctx.concat_many(&[rest, poison_mask, value])
    }

    /// A pointer-fragment byte.
    pub fn pack_ptr(self, ctx: &Ctx, payload: TermId, frag: u32, poison: TermId) -> TermId {
        let mask = ctx.ite(poison, ctx.bv_lit_u64(8, 0xff), ctx.bv_lit_u64(8, 0));
        let frag_t = ctx.bv_lit_u64(3, frag as u64);
        let is_ptr = ctx.bv_lit_u64(1, 1);
        let value = ctx.bv_lit_u64(8, 0);
        ctx.concat_many(&[payload, frag_t, is_ptr, mask, value])
    }

    /// The numeric value field.
    pub fn value(self, ctx: &Ctx, byte: TermId) -> TermId {
        ctx.extract(byte, 7, 0)
    }

    /// The poison mask field.
    pub fn poison_mask(self, ctx: &Ctx, byte: TermId) -> TermId {
        ctx.extract(byte, 15, 8)
    }

    /// Bool: the byte is a pointer fragment.
    pub fn is_ptr(self, ctx: &Ctx, byte: TermId) -> TermId {
        ctx.eq(ctx.extract(byte, 16, 16), ctx.bv_lit_u64(1, 1))
    }

    /// The fragment index field.
    pub fn frag(self, ctx: &Ctx, byte: TermId) -> TermId {
        ctx.extract(byte, 19, 17)
    }

    /// The pointer payload field.
    pub fn payload(self, ctx: &Ctx, byte: TermId) -> TermId {
        ctx.extract(byte, 19 + self.ptr_bits, 20)
    }
}

#[derive(Clone, Debug)]
enum StoreKind {
    /// A single-byte store.
    Byte(TermId),
    /// An unknown call clobbered all non-local memory: subsequent loads of
    /// shared blocks read from this uninterpreted function (§3.8
    /// over-approximation of memory-writing calls).
    Havoc(FuncId),
}

#[derive(Clone, Debug)]
struct StoreRec {
    guard: TermId,
    addr: Option<TermId>,
    kind: StoreKind,
}

/// The symbolic memory of one function being encoded.
#[derive(Debug)]
pub struct SymMemory {
    /// Configuration (pointer widths).
    pub cfg: EncodeConfig,
    /// All declared blocks, indexed by bid.
    pub blocks: Vec<BlockInfo>,
    stores: Vec<StoreRec>,
    /// Undef variables that were ever stored; loaded values must refresh
    /// them (§4).
    pub stored_undef_vars: BTreeSet<TermId>,
    /// Shared uninterpreted function giving the initial contents of
    /// unknown (non-local) memory; shared across src/tgt so both see the
    /// same incoming heap.
    pub init_mem: FuncId,
    /// Number of leading blocks (null + globals + argument blocks) whose
    /// bids are shared between source and target; call havocs only touch
    /// these (the paper's §6 limitation: locals are never modified by
    /// calls).
    pub shared_blocks: usize,
    codec: ByteCodec,
}

impl SymMemory {
    /// Creates a memory with only the null block. `init_mem` must be the
    /// shared initial-memory UF from the common environment.
    pub fn new(ctx: &Ctx, cfg: EncodeConfig, init_mem: FuncId) -> SymMemory {
        let codec = ByteCodec {
            ptr_bits: cfg.ptr_bits(),
        };
        let mut mem = SymMemory {
            cfg,
            blocks: Vec::new(),
            stores: Vec::new(),
            stored_undef_vars: BTreeSet::new(),
            init_mem,
            shared_blocks: 1,
            codec,
        };
        mem.blocks.push(BlockInfo {
            kind: BlockKind::Null,
            size: ctx.bv_lit_u64(cfg.off_bits, 0),
            read_only: true,
            allocated: ctx.tru(),
            freed: ctx.fals(),
            init: Some(Vec::new()),
            name: "null".into(),
        });
        mem
    }

    /// The byte codec in use.
    pub fn codec(&self) -> ByteCodec {
        self.codec
    }

    /// Declares a new block, returning its bid.
    ///
    /// # Panics
    ///
    /// Panics if the bid space is exhausted.
    pub fn add_block(&mut self, info: BlockInfo) -> u64 {
        let bid = self.blocks.len() as u64;
        assert!(
            bid < (1u64 << self.cfg.bid_bits),
            "block id space exhausted (bid_bits = {})",
            self.cfg.bid_bits
        );
        self.blocks.push(info);
        bid
    }

    /// A pointer term `(bid, off)`.
    pub fn ptr(&self, ctx: &Ctx, bid: u64, off: TermId) -> TermId {
        let bid_t = ctx.bv_lit_u64(self.cfg.bid_bits, bid);
        ctx.concat(bid_t, off)
    }

    /// The null pointer `(0, 0)`.
    pub fn null(&self, ctx: &Ctx) -> TermId {
        self.ptr(ctx, 0, ctx.bv_lit_u64(self.cfg.off_bits, 0))
    }

    /// The bid component of a pointer term.
    pub fn bid_of(&self, ctx: &Ctx, ptr: TermId) -> TermId {
        let w = self.cfg.ptr_bits();
        ctx.extract(ptr, w - 1, self.cfg.off_bits)
    }

    /// The offset component of a pointer term.
    pub fn off_of(&self, ctx: &Ctx, ptr: TermId) -> TermId {
        ctx.extract(ptr, self.cfg.off_bits - 1, 0)
    }

    /// Bool: the pointer is alive and `[off, off+len)` is within bounds.
    pub fn access_ok(&self, ctx: &Ctx, ptr: TermId, len: u64) -> TermId {
        let bid = self.bid_of(ctx, ptr);
        let off = self.off_of(ctx, ptr);
        let ext = self.cfg.off_bits + 2;
        let end = ctx.bv_add(ctx.zext(off, ext), ctx.bv_lit_u64(ext, len));
        let mut cases = Vec::new();
        for (k, b) in self.blocks.iter().enumerate() {
            if b.kind == BlockKind::Null {
                continue;
            }
            let is_k = ctx.eq(bid, ctx.bv_lit_u64(self.cfg.bid_bits, k as u64));
            let in_bounds = ctx.bv_ule(end, ctx.zext(b.size, ext));
            let alive = ctx.and(b.allocated, ctx.not(b.freed));
            cases.push(ctx.and_many(&[is_k, in_bounds, alive]));
        }
        ctx.or_many(&cases)
    }

    /// Bool: a store of `len` bytes at `ptr` is permitted (adds the
    /// read-only check on top of [`SymMemory::access_ok`]).
    pub fn write_ok(&self, ctx: &Ctx, ptr: TermId, len: u64) -> TermId {
        let ok = self.access_ok(ctx, ptr, len);
        let bid = self.bid_of(ctx, ptr);
        let mut ro = Vec::new();
        for (k, b) in self.blocks.iter().enumerate() {
            if b.read_only && b.kind != BlockKind::Null {
                ro.push(ctx.eq(bid, ctx.bv_lit_u64(self.cfg.bid_bits, k as u64)));
            }
        }
        let any_ro = ctx.or_many(&ro);
        ctx.and(ok, ctx.not(any_ro))
    }

    fn addr_plus(&self, ctx: &Ctx, ptr: TermId, delta: u64) -> TermId {
        let bid = self.bid_of(ctx, ptr);
        let off = self.off_of(ctx, ptr);
        let off2 = ctx.bv_add(off, ctx.bv_lit_u64(self.cfg.off_bits, delta));
        ctx.concat(bid, off2)
    }

    /// Appends a raw byte store under `guard`.
    pub fn store_byte(&mut self, guard: TermId, addr: TermId, byte: TermId) {
        self.stores.push(StoreRec {
            guard,
            addr: Some(addr),
            kind: StoreKind::Byte(byte),
        });
    }

    /// Bool: the address lies in a shared (caller-visible) block.
    pub fn is_shared_addr(&self, ctx: &Ctx, addr: TermId) -> TermId {
        let bid = self.bid_of(ctx, addr);
        ctx.bv_ult(
            bid,
            ctx.bv_lit_u64(self.cfg.bid_bits, self.shared_blocks as u64),
        )
    }

    /// Records that an unknown call may have rewritten all shared memory;
    /// `havoc_fn` must be an UF from address to packed byte.
    pub fn havoc_shared(&mut self, guard: TermId, havoc_fn: FuncId) {
        self.stores.push(StoreRec {
            guard,
            addr: None,
            kind: StoreKind::Havoc(havoc_fn),
        });
    }

    /// The packed byte at `addr`, resolved through all stores so far. Fresh
    /// undef variables for uninitialized stack/heap contents are pushed to
    /// `fresh_acc`.
    pub fn load_byte(&mut self, ctx: &Ctx, addr: TermId, fresh_acc: &mut Vec<TermId>) -> TermId {
        let mut cur = self.init_byte(ctx, addr, fresh_acc);
        for s in self.stores.clone() {
            match s.kind {
                StoreKind::Byte(byte) => {
                    let at = s.addr.expect("byte stores carry an address");
                    let hit = ctx.and(s.guard, ctx.eq(at, addr));
                    cur = ctx.ite(hit, byte, cur);
                }
                StoreKind::Havoc(f) => {
                    let hit = ctx.and(s.guard, self.is_shared_addr(ctx, addr));
                    let clobbered = ctx.apply(f, &[addr]);
                    cur = ctx.ite(hit, clobbered, cur);
                }
            }
        }
        cur
    }

    /// The initial (pre-store) byte at `addr`.
    fn init_byte(&mut self, ctx: &Ctx, addr: TermId, fresh_acc: &mut Vec<TermId>) -> TermId {
        let codec = self.codec;
        let bid = self.bid_of(ctx, addr);
        let off = self.off_of(ctx, addr);
        // Default: unknown shared initial memory.
        let mut cur = ctx.apply(self.init_mem, &[addr]);
        for (k, b) in self.blocks.iter().enumerate() {
            let is_k = ctx.eq(bid, ctx.bv_lit_u64(self.cfg.bid_bits, k as u64));
            match (&b.kind, &b.init) {
                (BlockKind::Stack | BlockKind::Heap, _) => {
                    // Uninitialized local memory reads as undef: a fresh,
                    // refreshable variable per load.
                    let fresh = ctx.var("uninit", Sort::BitVec(8));
                    fresh_acc.push(fresh);
                    let byte = codec.pack_num(ctx, fresh, ctx.bv_lit_u64(8, 0));
                    cur = ctx.ite(is_k, byte, cur);
                }
                (_, Some(bytes)) => {
                    // Known initializer: select by offset; out-of-range
                    // offsets are unreachable (bounds-checked loads), so any
                    // default will do.
                    let mut val = ctx.bv_lit_u64(codec.width(), 0);
                    for (i, &byte) in bytes.iter().enumerate() {
                        let at = ctx.eq(off, ctx.bv_lit_u64(self.cfg.off_bits, i as u64));
                        val = ctx.ite(at, byte, val);
                    }
                    cur = ctx.ite(is_k, val, cur);
                }
                (_, None) => {}
            }
        }
        cur
    }

    /// Stores a scalar of IR type `ty` at `ptr` under `guard`. Returns the
    /// condition under which the store is UB.
    ///
    /// The caller must pass pointer-typed values as `ptr_bits`-wide terms
    /// and other scalars at their natural width.
    pub fn store_scalar(
        &mut self,
        ctx: &Ctx,
        guard: TermId,
        ptr: TermId,
        ty: &Type,
        val: &ScalarVal,
    ) -> TermId {
        let len = ty.byte_size();
        let ub = ctx.and(guard, ctx.not(self.write_ok(ctx, ptr, len)));
        self.stored_undef_vars
            .extend(val.undef_vars.iter().copied());
        match ty {
            Type::Ptr => {
                for i in 0..len {
                    let byte = self.codec.pack_ptr(ctx, val.value, i as u32, val.poison);
                    let addr = self.addr_plus(ctx, ptr, i);
                    self.store_byte(guard, addr, byte);
                }
            }
            _ => {
                let w = ty.bit_width();
                for i in 0..len {
                    let lo = (i * 8) as u32;
                    let hi = ((i + 1) * 8 - 1) as u32;
                    let (v, pad_mask) = if hi < w {
                        (ctx.extract(val.value, hi, lo), 0u64)
                    } else if lo < w {
                        // Partial final byte: pad bits carry poison.
                        let part = ctx.extract(val.value, w - 1, lo);
                        let padded = ctx.zext(part, 8);
                        let mask = !((1u64 << (w - lo)) - 1) & 0xff;
                        (padded, mask)
                    } else {
                        (ctx.bv_lit_u64(8, 0), 0xff)
                    };
                    let mask = ctx.ite(
                        val.poison,
                        ctx.bv_lit_u64(8, 0xff),
                        ctx.bv_lit_u64(8, pad_mask),
                    );
                    let byte = self.codec.pack_num(ctx, v, mask);
                    let addr = self.addr_plus(ctx, ptr, i);
                    self.store_byte(guard, addr, byte);
                }
            }
        }
        ub
    }

    /// Loads a scalar of IR type `ty` from `ptr`. Returns the value and
    /// the condition under which the load is UB. Fresh undef variables go
    /// to `fresh_acc`; the result's undef set covers stored-undef values
    /// (§4: undef variables in loaded values are refreshed).
    pub fn load_scalar(
        &mut self,
        ctx: &Ctx,
        guard: TermId,
        ptr: TermId,
        ty: &Type,
        fresh_acc: &mut Vec<TermId>,
    ) -> (ScalarVal, TermId) {
        let len = ty.byte_size();
        let ub = ctx.and(guard, ctx.not(self.access_ok(ctx, ptr, len)));
        let codec = self.codec;
        let bytes: Vec<TermId> = (0..len)
            .map(|i| {
                let addr = self.addr_plus(ctx, ptr, i);
                self.load_byte(ctx, addr, fresh_acc)
            })
            .collect();
        let mut undef_vars: BTreeSet<TermId> = self.stored_undef_vars.clone();
        undef_vars.extend(fresh_acc.iter().copied());
        let (value, poison) = match ty {
            Type::Ptr => {
                // All fragments must be pointer bytes of the same pointer in
                // order.
                let payload = codec.payload(ctx, bytes[0]);
                let mut bad = Vec::new();
                for (i, &b) in bytes.iter().enumerate() {
                    let not_ptr = ctx.not(codec.is_ptr(ctx, b));
                    let wrong_frag = ctx.ne(codec.frag(ctx, b), ctx.bv_lit_u64(3, i as u64));
                    let wrong_payload = ctx.ne(codec.payload(ctx, b), payload);
                    let poisoned = ctx.ne(codec.poison_mask(ctx, b), ctx.bv_lit_u64(8, 0));
                    bad.push(ctx.or_many(&[not_ptr, wrong_frag, wrong_payload, poisoned]));
                }
                (payload, ctx.or_many(&bad))
            }
            _ => {
                let w = ty.bit_width();
                let mut value_parts: Vec<TermId> = Vec::new();
                let mut poisons = Vec::new();
                for (i, &b) in bytes.iter().enumerate() {
                    // Loading a non-pointer type from a pointer byte is
                    // poison (type punning through memory, §4).
                    poisons.push(codec.is_ptr(ctx, b));
                    let lo = (i as u32) * 8;
                    let hi = ((i as u32) + 1) * 8 - 1;
                    let relevant = if hi < w { 8 } else { w - lo };
                    if relevant == 0 {
                        continue;
                    }
                    let v = ctx.extract(codec.value(ctx, b), relevant - 1, 0);
                    value_parts.push(v);
                    let m = ctx.extract(codec.poison_mask(ctx, b), relevant - 1, 0);
                    poisons.push(ctx.ne(m, ctx.bv_lit_u64(relevant, 0)));
                }
                // Little-endian assembly: byte 0 is the LSB.
                value_parts.reverse();
                let value = ctx.concat_many(&value_parts);
                (value, ctx.or_many(&poisons))
            }
        };
        (
            ScalarVal {
                value,
                poison,
                undef_vars,
            },
            ub,
        )
    }

    /// Encodes `free(ptr)` under `guard`. Returns the UB condition
    /// (non-heap pointer, non-zero offset, double free; `free(null)` is a
    /// no-op).
    pub fn free(&mut self, ctx: &Ctx, guard: TermId, ptr: TermId) -> TermId {
        let bid = self.bid_of(ctx, ptr);
        let off = self.off_of(ctx, ptr);
        let is_null = ctx.eq(ptr, self.null(ctx));
        let off_zero = ctx.eq(off, ctx.bv_lit_u64(self.cfg.off_bits, 0));
        let mut heap_ok = Vec::new();
        for (k, b) in self.blocks.iter().enumerate() {
            if b.kind != BlockKind::Heap {
                continue;
            }
            let is_k = ctx.eq(bid, ctx.bv_lit_u64(self.cfg.bid_bits, k as u64));
            let alive = ctx.and(b.allocated, ctx.not(b.freed));
            heap_ok.push(ctx.and(is_k, alive));
        }
        let valid_heap = ctx.and(ctx.or_many(&heap_ok), off_zero);
        let ub = ctx.and(guard, ctx.not(ctx.or(is_null, valid_heap)));
        // Mark freed.
        for k in 0..self.blocks.len() {
            if self.blocks[k].kind != BlockKind::Heap {
                continue;
            }
            let is_k = ctx.eq(bid, ctx.bv_lit_u64(self.cfg.bid_bits, k as u64));
            let now = ctx.and(guard, is_k);
            self.blocks[k].freed = ctx.or(self.blocks[k].freed, now);
        }
        ub
    }

    /// The raw byte at a symbolic address in the *final* memory (used by
    /// the refinement check). Does not allocate fresh undef variables:
    /// uninitialized local content compares as itself through the shared
    /// accumulator passed by the caller.
    pub fn final_byte(&mut self, ctx: &Ctx, addr: TermId, fresh_acc: &mut Vec<TermId>) -> TermId {
        self.load_byte(ctx, addr, fresh_acc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use alive2_smt::model::Model;
    use alive2_smt::sat::Budget;
    use alive2_smt::solver::Solver;

    fn setup() -> (Ctx, SymMemory) {
        let ctx = Ctx::new();
        let cfg = EncodeConfig::default();
        let init = ctx.func(
            "init_mem",
            &[Sort::BitVec(cfg.ptr_bits())],
            Sort::BitVec(20 + cfg.ptr_bits()),
        );
        let mem = SymMemory::new(&ctx, cfg, init);
        (ctx, mem)
    }

    fn stack_block(ctx: &Ctx, mem: &mut SymMemory, size: u64) -> u64 {
        mem.add_block(BlockInfo {
            kind: BlockKind::Stack,
            size: ctx.bv_lit_u64(mem.cfg.off_bits, size),
            read_only: false,
            allocated: ctx.tru(),
            freed: ctx.fals(),
            init: None,
            name: "local".into(),
        })
    }

    #[test]
    fn store_then_load_round_trips() {
        let (ctx, mut mem) = setup();
        let bid = stack_block(&ctx, &mut mem, 8);
        let off = ctx.bv_lit_u64(mem.cfg.off_bits, 0);
        let ptr = mem.ptr(&ctx, bid, off);
        let val = ScalarVal::defined(ctx.bv_lit_u64(32, 0xdead_beef), &ctx);
        let ub1 = mem.store_scalar(&ctx, ctx.tru(), ptr, &Type::i32(), &val);
        let mut fresh = Vec::new();
        let (loaded, ub2) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::i32(), &mut fresh);
        let m = Model::new();
        assert!(!m.eval_bool(&ctx, ub1));
        assert!(!m.eval_bool(&ctx, ub2));
        assert!(!m.eval_bool(&ctx, loaded.poison));
        assert_eq!(m.eval_bv(&ctx, loaded.value).to_u64(), 0xdead_beef);
    }

    #[test]
    fn poison_store_loads_as_poison() {
        let (ctx, mut mem) = setup();
        let bid = stack_block(&ctx, &mut mem, 4);
        let ptr = mem.ptr(&ctx, bid, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let val = ScalarVal::poison(&ctx, 16);
        mem.store_scalar(&ctx, ctx.tru(), ptr, &Type::Int(16), &val);
        let mut fresh = Vec::new();
        let (loaded, _) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::Int(16), &mut fresh);
        let m = Model::new();
        assert!(m.eval_bool(&ctx, loaded.poison));
    }

    #[test]
    fn out_of_bounds_access_is_ub() {
        let (ctx, mut mem) = setup();
        let bid = stack_block(&ctx, &mut mem, 2);
        let ptr = mem.ptr(&ctx, bid, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let mut fresh = Vec::new();
        // 4-byte load from a 2-byte block.
        let (_, ub) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::i32(), &mut fresh);
        let m = Model::new();
        assert!(m.eval_bool(&ctx, ub));
        // In-bounds 2-byte load is fine.
        let (_, ub2) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::Int(16), &mut fresh);
        assert!(!m.eval_bool(&ctx, ub2));
    }

    #[test]
    fn null_deref_is_ub() {
        let (ctx, mut mem) = setup();
        let ptr = mem.null(&ctx);
        let mut fresh = Vec::new();
        let (_, ub) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::i8(), &mut fresh);
        let m = Model::new();
        assert!(m.eval_bool(&ctx, ub));
    }

    #[test]
    fn read_only_store_is_ub() {
        let (ctx, mut mem) = setup();
        let bid = mem.add_block(BlockInfo {
            kind: BlockKind::Global,
            size: ctx.bv_lit_u64(mem.cfg.off_bits, 4),
            read_only: true,
            allocated: ctx.tru(),
            freed: ctx.fals(),
            init: None,
            name: "g".into(),
        });
        let ptr = mem.ptr(&ctx, bid, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let val = ScalarVal::defined(ctx.bv_lit_u64(32, 1), &ctx);
        let ub = mem.store_scalar(&ctx, ctx.tru(), ptr, &Type::i32(), &val);
        let m = Model::new();
        assert!(m.eval_bool(&ctx, ub));
    }

    #[test]
    fn pointer_round_trip_through_memory() {
        let (ctx, mut mem) = setup();
        let b1 = stack_block(&ctx, &mut mem, 16);
        let b2 = stack_block(&ctx, &mut mem, 8);
        let slot = mem.ptr(&ctx, b1, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let stored_ptr = mem.ptr(&ctx, b2, ctx.bv_lit_u64(mem.cfg.off_bits, 4));
        let val = ScalarVal::defined(stored_ptr, &ctx);
        mem.store_scalar(&ctx, ctx.tru(), slot, &Type::Ptr, &val);
        let mut fresh = Vec::new();
        let (loaded, ub) = mem.load_scalar(&ctx, ctx.tru(), slot, &Type::Ptr, &mut fresh);
        let m = Model::new();
        assert!(!m.eval_bool(&ctx, ub));
        assert!(!m.eval_bool(&ctx, loaded.poison));
        assert_eq!(m.eval_bv(&ctx, loaded.value), m.eval_bv(&ctx, stored_ptr));
    }

    #[test]
    fn loading_int_from_pointer_bytes_is_poison() {
        let (ctx, mut mem) = setup();
        let b1 = stack_block(&ctx, &mut mem, 16);
        let slot = mem.ptr(&ctx, b1, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let val = ScalarVal::defined(mem.null(&ctx), &ctx);
        mem.store_scalar(&ctx, ctx.tru(), slot, &Type::Ptr, &val);
        let mut fresh = Vec::new();
        let (loaded, _) = mem.load_scalar(&ctx, ctx.tru(), slot, &Type::i8(), &mut fresh);
        let m = Model::new();
        assert!(m.eval_bool(&ctx, loaded.poison));
    }

    #[test]
    fn global_initializer_bytes_visible() {
        let (ctx, mut mem) = setup();
        let codec = mem.codec();
        let init_bytes: Vec<TermId> = [0x78u64, 0x56, 0x34, 0x12]
            .iter()
            .map(|&b| codec.pack_num(&ctx, ctx.bv_lit_u64(8, b), ctx.bv_lit_u64(8, 0)))
            .collect();
        let bid = mem.add_block(BlockInfo {
            kind: BlockKind::Global,
            size: ctx.bv_lit_u64(mem.cfg.off_bits, 4),
            read_only: false,
            allocated: ctx.tru(),
            freed: ctx.fals(),
            init: Some(init_bytes),
            name: "g".into(),
        });
        let ptr = mem.ptr(&ctx, bid, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let mut fresh = Vec::new();
        let (loaded, _) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::i32(), &mut fresh);
        let m = Model::new();
        assert_eq!(m.eval_bv(&ctx, loaded.value).to_u64(), 0x1234_5678);
    }

    #[test]
    fn free_semantics() {
        let (ctx, mut mem) = setup();
        let heap = mem.add_block(BlockInfo {
            kind: BlockKind::Heap,
            size: ctx.bv_lit_u64(mem.cfg.off_bits, 8),
            read_only: false,
            allocated: ctx.tru(),
            freed: ctx.fals(),
            init: None,
            name: "h".into(),
        });
        let p = mem.ptr(&ctx, heap, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let m = Model::new();
        // free(null) is fine
        let ub0 = mem.free(&ctx, ctx.tru(), mem.null(&ctx));
        assert!(!m.eval_bool(&ctx, ub0));
        // first free ok
        let ub1 = mem.free(&ctx, ctx.tru(), p);
        assert!(!m.eval_bool(&ctx, ub1));
        // double free is UB
        let ub2 = mem.free(&ctx, ctx.tru(), p);
        assert!(m.eval_bool(&ctx, ub2));
        // use after free is UB
        let mut fresh = Vec::new();
        let (_, ub3) = mem.load_scalar(&ctx, ctx.tru(), p, &Type::i8(), &mut fresh);
        assert!(m.eval_bool(&ctx, ub3));
    }

    #[test]
    fn guarded_store_is_invisible_when_guard_false() {
        let (ctx, mut mem) = setup();
        let bid = stack_block(&ctx, &mut mem, 4);
        let ptr = mem.ptr(&ctx, bid, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let v1 = ScalarVal::defined(ctx.bv_lit_u64(8, 1), &ctx);
        let v2 = ScalarVal::defined(ctx.bv_lit_u64(8, 2), &ctx);
        mem.store_scalar(&ctx, ctx.tru(), ptr, &Type::i8(), &v1);
        let g = ctx.var("g", Sort::Bool);
        mem.store_scalar(&ctx, g, ptr, &Type::i8(), &v2);
        let mut fresh = Vec::new();
        let (loaded, _) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::i8(), &mut fresh);
        // Prove: g => loaded == 2, !g => loaded == 1 via the solver.
        let two = ctx.bv_lit_u64(8, 2);
        let one = ctx.bv_lit_u64(8, 1);
        let prop = ctx.ite(g, ctx.eq(loaded.value, two), ctx.eq(loaded.value, one));
        let mut s = Solver::new(&ctx);
        s.assert(ctx.not(prop));
        assert!(s.check(Budget::unlimited()).is_unsat());
    }

    #[test]
    fn uninit_stack_load_is_undef_not_poison() {
        let (ctx, mut mem) = setup();
        let bid = stack_block(&ctx, &mut mem, 4);
        let ptr = mem.ptr(&ctx, bid, ctx.bv_lit_u64(mem.cfg.off_bits, 0));
        let mut fresh = Vec::new();
        let (loaded, _) = mem.load_scalar(&ctx, ctx.tru(), ptr, &Type::i8(), &mut fresh);
        assert!(!fresh.is_empty());
        assert!(!loaded.undef_vars.is_empty());
        let m = Model::new();
        assert!(!m.eval_bool(&ctx, loaded.poison));
    }
}
