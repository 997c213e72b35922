package machine

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strconv"
	"strings"
)

// Design-point overrides: a small reflection-backed setter that turns
// "Field=value" strings into DesignPoint mutations. This is what gives
// the sweep CLI every ablation axis the struct exposes without growing a
// flag per field — `-set FastCrypto=true`, `-set Cores=8`,
// `-set TreeArities=8,8,8` — while keeping the failure modes typed so
// callers can tell "no such field" from an unparseable value. Every
// DesignPoint field is settable.

// ErrUnknownField reports an override naming no DesignPoint field.
var ErrUnknownField = errors.New("unknown DesignPoint field")

// FieldError wraps an override failure with the field it targeted.
// errors.Is sees through it to ErrUnknownField or the strconv parse
// error.
type FieldError struct {
	Field string
	Err   error
}

func (e *FieldError) Error() string { return fmt.Sprintf("field %s: %v", e.Field, e.Err) }

// Unwrap exposes the underlying error to errors.Is/As.
func (e *FieldError) Unwrap() error { return e.Err }

// FieldOverride is one parsed "Field=value" design-point override. The
// field name must match the Go field name of DesignPoint exactly.
type FieldOverride struct {
	Field string
	Value string
}

// ParseOverride splits a "Field=value" string. The value may be empty
// (clears a string field); the field name may not.
func ParseOverride(s string) (FieldOverride, error) {
	name, val, ok := strings.Cut(s, "=")
	name = strings.TrimSpace(name)
	if !ok || name == "" {
		return FieldOverride{}, fmt.Errorf("override %q is not of the form Field=value", s)
	}
	return FieldOverride{Field: name, Value: strings.TrimSpace(val)}, nil
}

// ParseOverrides parses a list of "Field=value" strings, failing on the
// first malformed element.
func ParseOverrides(ss []string) ([]FieldOverride, error) {
	out := make([]FieldOverride, 0, len(ss))
	for _, s := range ss {
		ov, err := ParseOverride(s)
		if err != nil {
			return nil, err
		}
		out = append(out, ov)
	}
	return out, nil
}

// Apply sets the named field on dp, converting the string value to the
// field's type. Unknown fields and unparseable values return a
// *FieldError.
func (o FieldOverride) Apply(dp *DesignPoint) error {
	f := reflect.ValueOf(dp).Elem().FieldByName(o.Field)
	if !f.IsValid() {
		return &FieldError{Field: o.Field, Err: fmt.Errorf("%w (settable fields: %s)",
			ErrUnknownField, strings.Join(OverridableFields(), " "))}
	}
	switch f.Kind() {
	case reflect.String:
		f.SetString(o.Value)
	case reflect.Bool:
		b, err := strconv.ParseBool(o.Value)
		if err != nil {
			return &FieldError{Field: o.Field, Err: err}
		}
		f.SetBool(b)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v, err := strconv.ParseInt(o.Value, 10, 64)
		if err != nil {
			return &FieldError{Field: o.Field, Err: err}
		}
		if f.OverflowInt(v) {
			return &FieldError{Field: o.Field, Err: fmt.Errorf("value %d overflows %s", v, f.Type())}
		}
		f.SetInt(v)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v, err := strconv.ParseUint(o.Value, 10, 64)
		if err != nil {
			return &FieldError{Field: o.Field, Err: err}
		}
		if f.OverflowUint(v) {
			return &FieldError{Field: o.Field, Err: fmt.Errorf("value %d overflows %s", v, f.Type())}
		}
		f.SetUint(v)
	case reflect.Slice: // []int: TreeArities, SocketOf
		var elems []int
		if o.Value != "" {
			for _, part := range strings.Split(o.Value, ",") {
				v, err := strconv.Atoi(strings.TrimSpace(part))
				if err != nil {
					return &FieldError{Field: o.Field, Err: err}
				}
				elems = append(elems, v)
			}
		}
		f.Set(reflect.ValueOf(elems))
	default:
		panic(fmt.Sprintf("machine: DesignPoint.%s has kind %s, which Apply does not parse", o.Field, f.Kind()))
	}
	return nil
}

// ApplyOverrides applies the overrides to dp in order, failing on the
// first error.
func ApplyOverrides(dp *DesignPoint, ovs []FieldOverride) error {
	for _, ov := range ovs {
		if err := ov.Apply(dp); err != nil {
			return err
		}
	}
	return nil
}

// OverridableFields returns the sorted DesignPoint field names, every
// one of which Apply can set.
func OverridableFields() []string {
	t := reflect.TypeOf(DesignPoint{})
	out := make([]string, t.NumField())
	for i := range out {
		out[i] = t.Field(i).Name
	}
	sort.Strings(out)
	return out
}

// UsesMinorBits reports whether the design point's behaviour depends on
// MinorBits: split-counter encryption (CounterSC) and the split-counter
// tree consume it; MoC/GC counters and the HT/SIT trees ignore it (SIT
// hardwires 56-bit counters). Sweeping MinorBits on a design point where
// this is false varies a label, not a machine.
func (dp DesignPoint) UsesMinorBits() bool {
	return dp.Counter == CounterSC || dp.Tree == TreeSCT
}
