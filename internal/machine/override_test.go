package machine

import (
	"errors"
	"reflect"
	"testing"
)

func TestOverrideApplyKinds(t *testing.T) {
	dp := ConfigSCT()
	for _, s := range []string{
		"MinorBits=6",
		"MetaKB=64",
		"FastCrypto=true",
		"Cores=8",
		"NoiseInterval=8000",
		"Seed=42",
		"Counter=MoC",
		"TreeArities=8,8,8",
	} {
		ov, err := ParseOverride(s)
		if err != nil {
			t.Fatalf("%s: %v", s, err)
		}
		if err := ov.Apply(&dp); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if dp.MinorBits != 6 || dp.MetaKB != 64 || !dp.FastCrypto || dp.Cores != 8 {
		t.Fatalf("overrides not applied: %+v", dp)
	}
	if dp.NoiseInterval != 8000 || dp.Seed != 42 || dp.Counter != CounterMoC {
		t.Fatalf("overrides not applied: %+v", dp)
	}
	if !reflect.DeepEqual(dp.TreeArities, []int{8, 8, 8}) {
		t.Fatalf("slice override not applied: %v", dp.TreeArities)
	}
}

func TestOverrideTypedErrors(t *testing.T) {
	dp := ConfigSCT()
	err := (FieldOverride{Field: "NoSuchField", Value: "1"}).Apply(&dp)
	if !errors.Is(err, ErrUnknownField) {
		t.Fatalf("unknown field error = %v", err)
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "NoSuchField" {
		t.Fatalf("FieldError not exposed: %v", err)
	}

	if err := (FieldOverride{Field: "MinorBits", Value: "seven"}).Apply(&dp); err == nil {
		t.Fatal("unparseable value accepted")
	}
	if err := (FieldOverride{Field: "MinorBits", Value: "-1"}).Apply(&dp); err == nil {
		t.Fatal("negative value accepted for uint field")
	}
}

// TestOverrideErrorPathTable sweeps every reachable Apply failure:
// unknown fields and unparseable values for each settable kind. Every failure must surface as a
// *FieldError naming the field, with the sentinel (or strconv error)
// visible to errors.Is through it.
func TestOverrideErrorPathTable(t *testing.T) {
	cases := []struct {
		name string
		spec string
		want error // sentinel expected via errors.Is; nil = any error
	}{
		{"unknown field", "NoSuchField=1", ErrUnknownField},
		{"unknown field case-sensitive", "minorbits=6", ErrUnknownField},
		{"uint from word", "MinorBits=seven", nil},
		{"uint from negative", "MinorBits=-1", nil},
		{"uint64 from float", "Seed=1.5", nil},
		{"int from float", "Cores=1.5", nil},
		{"bool from word", "FastCrypto=maybe", nil},
		{"int slice bad element", "TreeArities=8,x,8", nil},
		{"int slice empty element", "TreeArities=8,,8", nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ov, err := ParseOverride(tc.spec)
			if err != nil {
				t.Fatalf("ParseOverride(%q): %v", tc.spec, err)
			}
			dp := ConfigSCT()
			before := dp
			err = ov.Apply(&dp)
			if err == nil {
				t.Fatalf("Apply(%q) succeeded", tc.spec)
			}
			if tc.want != nil && !errors.Is(err, tc.want) {
				t.Errorf("Apply(%q) = %v, want errors.Is(%v)", tc.spec, err, tc.want)
			}
			var fe *FieldError
			if !errors.As(err, &fe) || fe.Field != ov.Field {
				t.Errorf("Apply(%q): error %v does not name field %q", tc.spec, err, ov.Field)
			}
			if !reflect.DeepEqual(dp, before) {
				t.Errorf("Apply(%q) failed but mutated the design point", tc.spec)
			}
		})
	}
}

// TestOverrideAxisRemapEquivalence pins the contract the sweep CLI's
// -set remapping relies on: for a field the grid owns as an axis,
// applying the override to a design point is exactly what building the
// design point from the axis value produces — so `-set MinorBits=6`
// and `-minor 6` cannot drift apart at the machine layer.
func TestOverrideAxisRemapEquivalence(t *testing.T) {
	for _, spec := range []string{"MinorBits=6", "MetaKB=64", "NoiseInterval=8000"} {
		ov, err := ParseOverride(spec)
		if err != nil {
			t.Fatal(err)
		}
		viaOverride := ConfigSCT()
		if err := ov.Apply(&viaOverride); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		direct := ConfigSCT()
		switch ov.Field {
		case "MinorBits":
			direct.MinorBits = 6
		case "MetaKB":
			direct.MetaKB = 64
		case "NoiseInterval":
			direct.NoiseInterval = 8000
		}
		if !reflect.DeepEqual(viaOverride, direct) {
			t.Errorf("%s: override result diverges from direct field set:\n%+v\n%+v", spec, viaOverride, direct)
		}
	}
}

func TestParseOverride(t *testing.T) {
	if _, err := ParseOverride("MinorBits"); err == nil {
		t.Fatal("missing '=' accepted")
	}
	if _, err := ParseOverride("=6"); err == nil {
		t.Fatal("empty field name accepted")
	}
	ov, err := ParseOverride(" MinorBits = 6 ")
	if err != nil || ov.Field != "MinorBits" || ov.Value != "6" {
		t.Fatalf("whitespace not trimmed: %+v %v", ov, err)
	}
	if _, err := ParseOverrides([]string{"A=1", "broken"}); err == nil {
		t.Fatal("malformed list element accepted")
	}
}

// TestOverridableFields pins the -set surface: adding or removing a
// DesignPoint knob shows up here as a diff. Every listed field must
// also take a value through Apply.
func TestOverridableFields(t *testing.T) {
	want := []string{
		"Contract", "Cores", "Counter", "FastCrypto", "FaultSpec",
		"GCBits", "Insecure", "IsolatedDomains", "MetaKB", "MinorBits",
		"MoCBits", "Name", "NoiseInterval", "NoisePages", "RandomizedMeta",
		"SGX", "SecurePages", "Seed", "SocketOf", "Tree", "TreeArities",
	}
	got := OverridableFields()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("OverridableFields() =\n%v\nwant\n%v", got, want)
	}
	values := map[reflect.Kind]string{
		reflect.String: "x", reflect.Bool: "true", reflect.Int: "1",
		reflect.Uint: "1", reflect.Uint64: "1", reflect.Slice: "1,2",
	}
	dpType := reflect.TypeOf(DesignPoint{})
	for _, name := range got {
		f, _ := dpType.FieldByName(name)
		dp := ConfigSCT()
		if err := (FieldOverride{Field: name, Value: values[f.Type.Kind()]}).Apply(&dp); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}

func TestUsesMinorBits(t *testing.T) {
	if !ConfigSCT().UsesMinorBits() {
		t.Fatal("SCT must use MinorBits (SC counters + SCT tree)")
	}
	if !ConfigHT().UsesMinorBits() {
		t.Fatal("HT must use MinorBits (SC counters)")
	}
	if ConfigSGX().UsesMinorBits() {
		t.Fatal("SGX must not use MinorBits (MoC counters + SIT tree hardwire 56 bits)")
	}
}
