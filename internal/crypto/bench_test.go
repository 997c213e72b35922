package crypto

import (
	"testing"

	"metaleak/internal/arch"
)

func BenchmarkEncryptBlock(b *testing.B) {
	e := New(DefaultConfig())
	var p Block
	b.SetBytes(arch.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Encrypt(p, arch.BlockID(i), uint64(i))
	}
}

func BenchmarkMAC(b *testing.B) {
	e := New(DefaultConfig())
	var ct Block
	b.SetBytes(arch.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.MACOf(&ct, arch.BlockID(i), uint64(i))
	}
}

// BenchmarkHashBytes hashes the inputs the trees hash: an HT node, an SCT
// counter block, an arity-8 version node, an arity-16 node and an
// arity-32 SCT leaf.
func BenchmarkHashBytes(b *testing.B) {
	for _, size := range []struct {
		name string
		n    int
	}{{"HTNode64B", 64}, {"SCTCounter72B", 72}, {"Arity8Node80B", 80}, {"Arity16Node144B", 144}, {"Arity32Leaf272B", 272}} {
		b.Run(size.name, func(b *testing.B) {
			e := New(DefaultConfig())
			buf := make([]byte, size.n)
			b.SetBytes(int64(len(buf)))
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				_ = e.HashBytes(buf)
			}
		})
	}
}

// BenchmarkNewEngine measures one engine's construction; the GHASH table
// is shared, so it is built outside the timed loop.
func BenchmarkNewEngine(b *testing.B) {
	engineSink = New(DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		engineSink = New(DefaultConfig())
	}
}

func BenchmarkFastModeEncrypt(b *testing.B) {
	e := New(Config{HashLatency: 12, Fast: true})
	var p Block
	b.SetBytes(arch.BlockSize)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Encrypt(p, arch.BlockID(i), uint64(i))
	}
}
