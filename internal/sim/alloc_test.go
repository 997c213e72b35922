package sim

import (
	"fmt"
	"testing"

	"metaleak/internal/arch"
	"metaleak/internal/cache"
)

// refAlloc is the linear-scan allocator the per-domain cursor replaced:
// AllocPage rescans the core's domain from its first frame. It is the
// differential test's reference for frames, errors and exhaustion.
type refAlloc struct {
	limit, domainPages int
	owner              map[arch.PageID]int
}

func (r *refAlloc) domainRange(core int) (lo, hi arch.PageID) {
	if r.domainPages == 0 {
		return 0, arch.PageID(r.limit)
	}
	lo = arch.PageID(core * r.domainPages)
	return lo, min(lo+arch.PageID(r.domainPages), arch.PageID(r.limit))
}

func (r *refAlloc) AllocPage(core int) arch.PageID {
	lo, hi := r.domainRange(core)
	for p := lo; p < hi; p++ {
		if _, taken := r.owner[p]; !taken {
			r.owner[p] = core
			return p
		}
	}
	panic("sim: secure region (or domain) exhausted")
}

func (r *refAlloc) AllocFrame(core int, frame arch.PageID) error {
	if int(frame) >= r.limit {
		return fmt.Errorf("sim: frame %d outside secure region (%d pages)", frame, r.limit)
	}
	if lo, hi := r.domainRange(core); frame < lo || frame >= hi {
		return fmt.Errorf("sim: frame %d outside core %d's domain [%d,%d)", frame, core, lo, hi)
	}
	if o, taken := r.owner[frame]; taken {
		return fmt.Errorf("sim: frame %d already owned by core %d", frame, o)
	}
	r.owner[frame] = core
	return nil
}

// Owner returns the reference's owner of a frame (-1 if unallocated).
func (r *refAlloc) Owner(frame arch.PageID) int {
	if o, ok := r.owner[frame]; ok {
		return o
	}
	return -1
}

// frameAllocator is what the test drives on both sides.
type frameAllocator interface {
	AllocPage(core int) arch.PageID
	AllocFrame(core int, frame arch.PageID) error
}

// allocPage reports AllocPage's frame, or its panic.
func allocPage(a frameAllocator, core int) (frame arch.PageID, panicked any) {
	defer func() { panicked = recover() }()
	return a.AllocPage(core), nil
}

// TestAllocatorMatchesLinearScan drives the cursor allocator and the
// linear-scan reference through the same seeded AllocPage/AllocFrame
// interleavings, with one shared domain and with four, and requires the
// same frame, error or panic from every call. AllocFrame targets land
// just below and just above each domain's lowest free frame, anywhere
// in the region, in other domains and past its end; the run ends by
// exhausting every domain, where both sides must panic.
func TestAllocatorMatchesLinearScan(t *testing.T) {
	const pages, cores = 256, 4
	for _, domainPages := range []int{0, pages / cores} {
		for seed := uint64(1); seed <= 4; seed++ {
			t.Run(fmt.Sprintf("domain%d/seed%d", domainPages, seed), func(t *testing.T) {
				// The allocator never reaches the memory controller.
				s := New(Config{
					Cores:       cores,
					L1:          cache.Config{Name: "L1", SizeBytes: 64, Ways: 1},
					L2:          cache.Config{Name: "L2", SizeBytes: 64, Ways: 1},
					L3:          cache.Config{Name: "L3", SizeBytes: 64, Ways: 1},
					SecurePages: pages,
					DomainPages: domainPages,
				}, nil)
				ref := &refAlloc{limit: pages, domainPages: domainPages, owner: map[arch.PageID]int{}}
				rng := arch.NewRNG(seed, 0xA110C)
				for i := 0; i < 3*pages/2; i++ {
					core := rng.Intn(cores)
					if rng.Intn(2) == 0 {
						got, gotPanic := allocPage(s, core)
						want, wantPanic := allocPage(ref, core)
						if got != want || gotPanic != wantPanic {
							t.Fatalf("call %d: AllocPage(%d) = %d (panic %v), reference %d (panic %v)", i, core, got, gotPanic, want, wantPanic)
						}
						continue
					}
					lowest, _ := ref.domainRange(core)
					for ref.Owner(lowest) >= 0 {
						lowest++
					}
					var frame arch.PageID
					switch rng.Intn(3) {
					case 0: // around the lowest free frame
						frame = arch.PageID(max(0, int(lowest)+rng.Intn(9)-4))
					case 1: // anywhere, other domains and the region's end included
						frame = arch.PageID(rng.Intn(pages + 8))
					default: // well above the lowest free frame
						frame = lowest + arch.PageID(8+rng.Intn(32))
					}
					got, want := s.AllocFrame(core, frame), ref.AllocFrame(core, frame)
					if fmt.Sprint(got) != fmt.Sprint(want) {
						t.Fatalf("call %d: AllocFrame(%d, %d) = %v, reference %v", i, core, frame, got, want)
					}
				}
				for core := 0; core < cores; core++ {
					for {
						got, gotPanic := allocPage(s, core)
						want, wantPanic := allocPage(ref, core)
						if got != want || gotPanic != wantPanic {
							t.Fatalf("draining core %d: %d (panic %v), reference %d (panic %v)", core, got, gotPanic, want, wantPanic)
						}
						if gotPanic != nil {
							break
						}
					}
				}
				for p := arch.PageID(0); p < pages; p++ {
					if s.Owner(p) != ref.Owner(p) {
						t.Fatalf("frame %d owned by %d, reference %d", p, s.Owner(p), ref.Owner(p))
					}
				}
			})
		}
	}
}
