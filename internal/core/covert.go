package core

import (
	"fmt"
	"sort"

	"metaleak/internal/arch"
	"metaleak/internal/itree"
)

// CovertT is the MetaLeak-T covert channel of §VI-A: a trojan and a spy on
// different cores, sharing no data, communicate through the caching state
// of two integrity tree node blocks — one carrying the bit ("transmission"
// set), one delimiting bit windows ("boundary" set).
type CovertT struct {
	Trojan *Attacker
	Spy    *Attacker

	// trojan-owned signalling blocks under the two shared nodes.
	txBlock, bdBlock arch.BlockID
	// trojan self-eviction plans: a touch only reaches the shared node if
	// the trojan's own counter (and intermediate nodes) miss on-chip.
	txPlan, bdPlan *evictionPlan

	// spy-side monitors of the two shared nodes.
	txMon, bdMon *Monitor

	// Stats.
	BitsSent     int
	BitErrors    int
	BoundaryMiss int
	// Trace records the spy's transmission-set reload latency per bit
	// (the Fig. 11 trace).
	Trace []arch.Cycles
}

// NewCovertT builds the channel at the given tree level. The two endpoint
// attackers must live on different cores of the same system.
func NewCovertT(trojan, spy *Attacker, level int) (*CovertT, error) {
	if trojan.Sys != spy.Sys {
		return nil, fmt.Errorf("core: endpoints on different systems")
	}
	c := &CovertT{Trojan: trojan, Spy: spy}

	// The trojan picks two signalling pages far enough apart that their
	// level-l nodes differ and land in different metadata cache sets, AND
	// such that neither signalling chain (counter block + below-node tree
	// blocks) conflict-maps onto the other node's cache set — otherwise one
	// signal would evict the other's mark.
	txPage := trojan.Sys.AllocPage(trojan.Core)
	meta := trojan.MC.Meta()
	nsTx := trojan.NodeOfPage(txPage, level)
	txNodeSet := meta.SetIndex(trojan.tree().NodeBlockID(nsTx))
	// One level-l node covers cov counter blocks; translate to pages via
	// the scheme's counter-block fan-out.
	cov := trojan.tree().CoverageCounterBlocks(level)
	blocksPerCB := trojan.MC.Counters().FanOut()
	stridePages := cov * blocksPerCB / arch.BlocksPerPage
	if stridePages < 1 {
		stridePages = 1
	}
	var bdPage arch.PageID
	found := false
	for stride := 1; stride < 4096 && !found; stride++ {
		cand := txPage + arch.PageID(stride*stridePages)
		if int(cand) >= trojan.Sys.SecurePages() {
			break
		}
		if trojan.Sys.Owner(cand) != -1 {
			continue
		}
		bdNodeSet := meta.SetIndex(trojan.tree().NodeBlockID(trojan.NodeOfPage(cand, level)))
		if bdNodeSet == txNodeSet {
			continue
		}
		if intersects(trojan.chainSets(cand.Block(0), level), []int{txNodeSet}) {
			continue
		}
		if intersects(trojan.chainSets(txPage.Block(0), level), []int{bdNodeSet}) {
			continue
		}
		bdPage = cand
		found = true
	}
	if !found {
		return nil, fmt.Errorf("core: no conflict-free boundary page available")
	}
	if err := trojan.ClaimFrame(bdPage); err != nil {
		return nil, err
	}
	c.txBlock, c.bdBlock = txPage.Block(0), bdPage.Block(0)

	// Both endpoints' eviction traffic must stay clear of BOTH shared
	// nodes: a stray access under either node would set it spuriously.
	nsBd := trojan.NodeOfPage(bdPage, level)
	shared := []itree.NodeRef{nsTx, nsBd}
	bdNodeSet := meta.SetIndex(trojan.tree().NodeBlockID(nsBd))

	// Trojan self-eviction plans for its own chains up to (but excluding)
	// the shared node.
	var err error
	c.txPlan, err = trojan.chainPlan(c.txBlock, level, shared...)
	if err != nil {
		return nil, err
	}
	c.bdPlan, err = trojan.chainPlan(c.bdBlock, level, shared...)
	if err != nil {
		return nil, err
	}

	// Spy monitors on the shared nodes, keyed by the trojan's pages (the
	// endpoints agree on placement out of band). Each monitor's reload
	// footprint must avoid the other node's cache set.
	c.txMon, err = spy.NewMonitorSpec(MonitorSpec{
		VictimPage: txPage, Level: level, AvoidNodes: shared, AvoidSets: []int{bdNodeSet},
	})
	if err != nil {
		return nil, err
	}
	c.bdMon, err = spy.NewMonitorSpec(MonitorSpec{
		VictimPage: bdPage, Level: level, AvoidNodes: shared, AvoidSets: []int{txNodeSet},
	})
	if err != nil {
		return nil, err
	}
	c.Train(24)
	return c, nil
}

// Train runs a known preamble through the full protocol and derives the
// spy's classification thresholds from the observed latency clusters —
// calibration under exactly the operating conditions of the channel.
func (c *CovertT) Train(windows int) {
	var txHit, txMiss, bdHit, bdMiss []arch.Cycles
	for i := 0; i < windows; i++ {
		c.txMon.Evict()
		c.bdMon.Evict()
		bit := i%2 == 0
		if bit {
			c.signal(c.txPlan, c.txBlock)
		}
		sendBd := i%6 != 5 // hold back a few boundary marks for miss samples
		if sendBd {
			c.signal(c.bdPlan, c.bdBlock)
		}
		txLat := c.txMon.ReloadLatency()
		bdLat := c.bdMon.ReloadLatency()
		if bit {
			txHit = append(txHit, txLat)
		} else {
			txMiss = append(txMiss, txLat)
		}
		if sendBd {
			bdHit = append(bdHit, bdLat)
		} else {
			bdMiss = append(bdMiss, bdLat)
		}
	}
	c.txMon.Threshold = midpoint(txHit, txMiss)
	c.bdMon.Threshold = midpoint(bdHit, bdMiss)
}

// midpoint places the threshold between the upper quartile of the fast
// cluster and the lower quartile of the slow one. Quartiles rather than
// means keep the threshold tight against the clusters' near edges even
// when a cluster is bimodal (e.g. the slow class splits by whether a
// higher tree level happened to be cached).
func midpoint(fast, slow []arch.Cycles) arch.Cycles {
	q := func(xs []arch.Cycles, p float64) arch.Cycles {
		if len(xs) == 0 {
			return 0
		}
		sorted := append([]arch.Cycles(nil), xs...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		return sorted[int(p*float64(len(sorted)-1))]
	}
	return (q(fast, 0.75) + q(slow, 0.25)) / 2
}

// chainPlan builds eviction sets for a block's own counter block and tree
// nodes strictly below the given level, with the eviction traffic kept
// outside the block's subtree and any extra nodes.
func (a *Attacker) chainPlan(b arch.BlockID, level int, extraAvoid ...itree.NodeRef) (*evictionPlan, error) {
	targets := []arch.BlockID{a.MC.Counters().CounterBlock(b)}
	avoid := a.pathBelow(b, level+1)
	avoid = append(avoid, extraAvoid...)
	for l := 0; l < level; l++ {
		targets = append(targets, a.tree().NodeBlockID(a.NodeOfBlock(b, l)))
	}
	return a.buildPlan(make(setCache), targets, avoid)
}

// signal makes the trojan touch a shared node: self-evict the chain so the
// verification walk reaches the node, then access the block.
func (c *CovertT) signal(plan *evictionPlan, b arch.BlockID) {
	plan.run(c.Trojan)
	c.Trojan.Sys.Flush(c.Trojan.Core, b)
	c.Trojan.Sys.Touch(c.Trojan.Core, b)
}

// SendBit runs one bit window of the protocol and returns the spy's
// decoded bit.
//
//metalint:secret bit -- the covert payload: the trojan's whole purpose is to leak it
func (c *CovertT) SendBit(bit bool) bool {
	// Spy: mEvict both shared nodes.
	c.txMon.Evict()
	c.bdMon.Evict()
	// Trojan: always mark the boundary; touch the transmission node for 1.
	if bit { //metalint:leaky itree-node the channel itself: the tx node is touched only for a 1 bit
		c.signal(c.txPlan, c.txBlock)
	}
	c.signal(c.bdPlan, c.bdBlock)
	// Spy: mReload both.
	got, lat := c.txMon.Reload()
	c.Trace = append(c.Trace, lat)
	if bd, _ := c.bdMon.Reload(); !bd {
		c.BoundaryMiss++
	}
	c.BitsSent++
	if got != bit { //metalint:leaky out-of-model self-check comparing decoded bit to sent bit
		c.BitErrors++
	}
	return got
}

// Send transmits a bit string and returns the decoded bits.
func (c *CovertT) Send(bits []bool) []bool {
	out := make([]bool, len(bits))
	for i, b := range bits {
		out[i] = c.SendBit(b)
	}
	return out
}

// Accuracy returns the fraction of correctly received bits so far.
func (c *CovertT) Accuracy() float64 {
	if c.BitsSent == 0 {
		return 0
	}
	return 1 - float64(c.BitErrors)/float64(c.BitsSent)
}

// CyclesPerBit reports the average simulated cycles one bit window takes.
func (c *CovertT) CyclesPerBit(total arch.Cycles) float64 {
	if c.BitsSent == 0 {
		return 0
	}
	return float64(total) / float64(c.BitsSent)
}

// ---------------------------------------------------------------------------

// CovertC is the MetaLeak-C covert channel of §VI-B: the trojan encodes a
// 7-bit symbol as a number of version-counter increments of a shared tree
// node; the spy decodes it by counting the additional increments needed to
// overflow the minor. mOverflow resets the counter, so after the initial
// calibration no explicit mPreset is needed (§VI-B).
type CovertC struct {
	Trojan *CounterMonitor
	Spy    *CounterMonitor

	// Stats.
	SymbolsSent  int
	SymbolErrors int
	// Trace records the spy's probe counts per symbol (Fig. 14's decoded
	// write counts).
	Trace []int
}

// NewCovertC builds the channel: both endpoints create counter monitors on
// the same shared child node (anchored at an agreed frame).
func NewCovertC(trojan, spy *Attacker, anchor arch.PageID, childLevel int) (*CovertC, error) {
	tm, err := trojan.NewCounterMonitor(anchor, childLevel)
	if err != nil {
		return nil, err
	}
	sm, err := spy.NewCounterMonitor(anchor, childLevel)
	if err != nil {
		return nil, err
	}
	if tm.Parent != sm.Parent || tm.Slot != sm.Slot {
		return nil, fmt.Errorf("core: endpoints bound to different minors")
	}
	c := &CovertC{Trojan: tm, Spy: sm}
	// The spy calibrates (leaving the counter in the known post-overflow
	// state) and the trojan borrows the threshold for its own bookkeeping.
	sm.Calibrate()
	tm.BumpThreshold = sm.BumpThreshold
	return c, nil
}

// MaxSymbol returns the largest transmissible symbol value.
func (c *CovertC) MaxSymbol() int { return int(c.Spy.MinorMax()) - 1 }

// SendSymbol transmits one symbol (0 <= s <= MaxSymbol) and returns the
// spy's decoded value.
//
//metalint:secret s -- the covert payload symbol, transmitted as a counter-bump count
func (c *CovertC) SendSymbol(s int) (int, error) {
	if s < 0 || s > c.MaxSymbol() { //metalint:leaky out-of-model input validation of the symbol; rejects out-of-range values
		return 0, fmt.Errorf("core: symbol %d out of range [0,%d]", s, c.MaxSymbol())
	}
	for i := 0; i < s; i++ { //metalint:leaky ctr-bump the channel itself: s counter bumps encode the symbol
		c.Trojan.Bump()
	}
	m, err := c.Spy.ProbeOverflow(int(c.Spy.MinorMax()) + 2)
	if err != nil {
		return 0, err
	}
	got := int(c.Spy.MinorMax()) - m
	c.Trace = append(c.Trace, m)
	c.SymbolsSent++
	if got != s { //metalint:leaky out-of-model self-check comparing decoded symbol to sent symbol
		c.SymbolErrors++
	}
	return got, nil
}

// Send transmits a symbol sequence, returning the decoded symbols.
func (c *CovertC) Send(symbols []int) ([]int, error) {
	out := make([]int, len(symbols))
	for i, s := range symbols {
		got, err := c.SendSymbol(s)
		if err != nil { //metalint:leaky out-of-model error propagation embeds the rejected symbol value
			return nil, err
		}
		out[i] = got
	}
	return out, nil
}

// Accuracy returns the fraction of correctly received symbols so far.
func (c *CovertC) Accuracy() float64 {
	if c.SymbolsSent == 0 {
		return 0
	}
	return 1 - float64(c.SymbolErrors)/float64(c.SymbolsSent)
}

// TxThreshold exposes the spy's transmission-set threshold (diagnostics).
func (c *CovertT) TxThreshold() arch.Cycles { return c.txMon.Threshold }

// BdThreshold exposes the spy's boundary-set threshold (diagnostics).
func (c *CovertT) BdThreshold() arch.Cycles { return c.bdMon.Threshold }

// SendBytes transmits a byte string MSB-first and returns the decoded
// bytes (a convenience wrapper over SendBit).
func (c *CovertT) SendBytes(msg []byte) []byte {
	out := make([]byte, len(msg))
	for i, b := range msg {
		var v byte
		for j := 7; j >= 0; j-- {
			v <<= 1
			if c.SendBit(b>>j&1 == 1) {
				v |= 1
			}
		}
		out[i] = v
	}
	return out
}

// SendString is SendBytes for text.
func (c *CovertT) SendString(msg string) string { return string(c.SendBytes([]byte(msg))) }

// SendBytes transmits bytes over the symbol channel, two symbols per
// byte (high two bits, then low six), keeping every symbol inside the
// channel's [0, MaxSymbol] alphabet.
func (c *CovertC) SendBytes(msg []byte) ([]byte, error) {
	out := make([]byte, len(msg))
	for i, b := range msg {
		hi, err := c.SendSymbol(int(b >> 6))
		if err != nil { //metalint:leaky out-of-model error propagation embeds the rejected symbol value
			return nil, err
		}
		lo, err := c.SendSymbol(int(b & 63))
		if err != nil { //metalint:leaky out-of-model error propagation embeds the rejected symbol value
			return nil, err
		}
		out[i] = byte(hi<<6 | lo&63)
	}
	return out, nil
}
