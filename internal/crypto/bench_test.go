package crypto

import (
	"testing"

	"metaleak/internal/arch"
)

func BenchmarkEncryptBlock(b *testing.B) {
	e := New(DefaultConfig())
	var p Block
	b.SetBytes(arch.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Encrypt(p, arch.BlockID(i), uint64(i))
	}
}

func BenchmarkMAC(b *testing.B) {
	e := New(DefaultConfig())
	var ct Block
	b.SetBytes(arch.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.MACOf(&ct, arch.BlockID(i), uint64(i))
	}
}

func BenchmarkHashNode(b *testing.B) {
	e := New(DefaultConfig())
	buf := make([]byte, 144) // an SCT node block's hash input
	b.SetBytes(int64(len(buf)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.HashBytes(buf)
	}
}

func BenchmarkFastModeEncrypt(b *testing.B) {
	e := New(Config{HashLatency: 12, Fast: true})
	var p Block
	b.SetBytes(arch.BlockSize)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = e.Encrypt(p, arch.BlockID(i), uint64(i))
	}
}
