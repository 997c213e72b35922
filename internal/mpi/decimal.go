package mpi

import (
	"fmt"
	"strings"
)

// Decimal output: key material in papers and RFC test vectors is
// usually printed in base 10; Decimal renders arbitrary-precision
// values without math/big.

// Decimal renders the value in base 10.
func (x Int) Decimal() string {
	if x.IsZero() { //metalint:leaky out-of-model decimal rendering of a secret integer (String/diagnostic path)
		return "0"
	}
	// Repeated division by 1e9 keeps the quotient loop short.
	chunk := New(1_000_000_000)
	var parts []uint64
	v := mk(false, x.abs)
	for !v.IsZero() { //metalint:leaky out-of-model decimal rendering of a secret integer (String/diagnostic path)
		q, r := v.QuoRem(chunk)
		parts = append(parts, r.Uint64())
		v = q
	}
	var sb strings.Builder
	if x.Sign() < 0 {
		sb.WriteByte('-')
	}
	fmt.Fprintf(&sb, "%d", parts[len(parts)-1]) //metalint:leaky out-of-model decimal rendering of a secret integer (String/diagnostic path)
	for i := len(parts) - 2; i >= 0; i-- {      //metalint:leaky out-of-model decimal rendering of a secret integer (String/diagnostic path)
		fmt.Fprintf(&sb, "%09d", parts[i]) //metalint:leaky out-of-model decimal rendering of a secret integer (String/diagnostic path)
	}
	return sb.String()
}
