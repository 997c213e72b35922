package lib

import "errors"

var registry []func()

// hook's package-level initializer reaches fromInitializer.
var hook = fromInitializer

func init() { registry = append(registry, fromInit) }

func fromInit()         {}
func fromInitializer()  {}
func FromFacade() int   { return 1 }
func FromFacadeMethod() {}
func FromExample()      {}
func FromBench()        {}
func Called()           {}
func FuncValue()        {}

// Dead is called by nothing.
func Dead() {}

// TestOnly is called only by a test, which is not a root.
func TestOnly() {}

// Reference is kept for a test.
//
//metalint:allow deadcode reference model for TestReference
func Reference() {}

// Counter's method value reaches MethodValue.
type Counter struct{ n int }

func (c *Counter) MethodValue() { c.n++ }
func (c *Counter) Unused()      {}

// Map and Box are generic; their instantiations reach the origin.
func Map[T any](xs []T, f func(T) T) []T {
	for i := range xs {
		xs[i] = f(xs[i])
	}
	return xs
}

func Double(x int) int { return 2 * x }

type Box[T any] struct{ v T }

func (b Box[T]) Get() T  { return b.v }
func (b Box[T]) Put(v T) { b.v = v }

// Shape dispatch: Circle is converted to Shape, Square never is.
type Shape interface{ Area() int }

type Circle struct{}

func (Circle) Area() int      { return 3 }
func (Circle) Perimeter() int { return 6 }

type Square struct{}

func (Square) Area() int { return 4 }

// Named reaches String through fmt; Unprinted is never converted.
type Named int

func (n Named) String() string { return "named" }

type Unprinted int

func (u Unprinted) String() string { return "unprinted" }

// MyErr reaches Error and Unwrap through the error interface.
type MyErr struct{}

func (*MyErr) Error() string { return "fail" }
func (*MyErr) Unwrap() error { return errors.New("inner") }

func Fail() error { return &MyErr{} }

// Doc is handed to encoding/json, which finds Inner's MarshalJSON by
// reflection.
type Doc struct{ Inner Inner }

type Inner struct{}

func (Inner) MarshalJSON() ([]byte, error) { return []byte(`1`), nil }

// ByLen goes to sort.Sort, which calls sort.Interface out of sight.
type ByLen []string

func (s ByLen) Len() int           { return len(s) }
func (s ByLen) Less(i, j int) bool { return len(s[i]) < len(s[j]) }
func (s ByLen) Swap(i, j int)      { s[i], s[j] = s[j], s[i] }

// Thing is re-exported by the facade; Base's exported methods are
// promoted into its method set.
type Thing struct{ Base }

func (Thing) Visible()   {}
func (Thing) invisible() {}

type Base struct{}

func (Base) Promoted() {}
func (Base) internal() {}

// Stale is reached, so its allow directive suppresses nothing.
//
//metalint:allow deadcode nothing to suppress here
func Stale() {}

var _ = Stale
