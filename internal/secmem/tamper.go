package secmem

import "metaleak/internal/arch"

// Tamper-injection hooks. These model the physical attacker of §II-B
// (spoofing, splicing, replay) by mutating the off-chip backing store
// behind the controller's back; tests assert that the MAC and integrity
// tree detect every one of them.

// BlockSnapshot captures a block's off-chip state (ciphertext + MAC) for a
// later replay.
type BlockSnapshot struct {
	Block arch.BlockID
	ct    [arch.BlockSize]byte
	mac   uint64
	ok    bool
}

// TamperFlipBit flips one bit of a block's ciphertext in memory (data
// spoofing).
func (c *Controller) TamperFlipBit(b arch.BlockID, bit int) {
	st := c.ensureInit(b)
	st.ct[bit/8%arch.BlockSize] ^= 1 << (bit % 8)
}

// TamperMAC flips one bit of a block's stored MAC in memory (the
// authentication tag itself is off-chip state an attacker can corrupt).
func (c *Controller) TamperMAC(b arch.BlockID, bit int) {
	c.ensureInit(b).mac ^= 1 << (bit % 64)
}

// TamperSplice swaps the off-chip contents (ciphertext and MAC) of two
// blocks (data splicing).
//
//metalint:allow deadcode fault hook for TestSplicingDetected
func (c *Controller) TamperSplice(b1, b2 arch.BlockID) {
	c.ensureInit(b1)
	c.ensureInit(b2)
	c.store[b1], c.store[b2] = c.store[b2], c.store[b1]
}

// Snapshot captures a block's current off-chip state.
func (c *Controller) Snapshot(b arch.BlockID) BlockSnapshot {
	st := c.ensureInit(b)
	return BlockSnapshot{Block: b, ct: st.ct, mac: st.mac, ok: true}
}

// TamperReplay restores an earlier snapshot of a block (data replay: a
// stale but self-consistent ciphertext+MAC pair).
func (c *Controller) TamperReplay(s BlockSnapshot) {
	if !s.ok {
		panic("secmem: replaying empty snapshot")
	}
	st := c.ensureInit(s.Block)
	st.ct = s.ct
	st.mac = s.mac
}
