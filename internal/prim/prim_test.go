package prim

import (
	"math"
	"testing"

	"github.com/aqldb/aql/internal/object"
)

func findPrim(t *testing.T, name string) Primitive {
	t.Helper()
	for _, p := range Standard() {
		if p.Name == name {
			return p
		}
	}
	t.Fatalf("no primitive %q", name)
	return Primitive{}
}

func call(t *testing.T, name string, arg object.Value) object.Value {
	t.Helper()
	p := findPrim(t, name)
	got, err := p.Fn.Fn()(arg)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	return got
}

func TestStandardHaveTypes(t *testing.T) {
	for _, p := range Standard() {
		if p.Type == nil {
			t.Errorf("%s has no declared type", p.Name)
		}
		if p.Fn.Kind != object.KFunc {
			t.Errorf("%s is not a function value", p.Name)
		}
	}
}

func TestHeatIndexRegression(t *testing.T) {
	// Published NWS reference point: 95°F at 55%% RH gives a heat index of
	// about 110°F.
	hi := HeatIndex(95, 55)
	if hi < 107 || hi > 113 {
		t.Errorf("HeatIndex(95, 55) = %.1f, want ~110", hi)
	}
	// Below 80°F the simple formula applies and stays close to the input.
	mild := HeatIndex(70, 50)
	if mild < 65 || mild > 75 {
		t.Errorf("HeatIndex(70, 50) = %.1f, want near 70", mild)
	}
	// Monotone in humidity at high temperature.
	if HeatIndex(95, 80) <= HeatIndex(95, 40) {
		t.Error("heat index should increase with humidity at 95°F")
	}
}

func TestHeatindexPrimitive(t *testing.T) {
	day := object.Vector(
		object.Tuple(object.Real(82), object.Real(40), object.Real(5)),
		object.Tuple(object.Real(95), object.Real(55), object.Real(3)),
		object.Tuple(object.Real(88), object.Real(60), object.Real(8)),
	)
	got := call(t, "heatindex", day)
	want := HeatIndex(95, 55) // the max over the day
	if math.Abs(got.R-want) > 1e-9 {
		t.Errorf("heatindex = %v, want %v", got.R, want)
	}
	// Empty day is ⊥.
	if got := call(t, "heatindex", object.Vector()); !got.IsBottom() {
		t.Errorf("heatindex([]) = %s, want bottom", got)
	}
	// Wrong shapes are errors.
	p := findPrim(t, "heatindex")
	if _, err := p.Fn.Fn()(object.Nat(1)); err == nil {
		t.Error("heatindex of a nat should error")
	}
}

func TestSunset(t *testing.T) {
	// New York in late June: sunset around 19-20 local solar time.
	h := Sunset(40.7, -74.0, 6, 25, 1995)
	if h < 18 || h > 21 {
		t.Errorf("Sunset(NYC, June 25) = %d, want evening", h)
	}
	// Winter sunset is earlier than summer sunset.
	if w := Sunset(40.7, -74.0, 12, 21, 1995); w >= h {
		t.Errorf("winter sunset %d should be before summer sunset %d", w, h)
	}
	// Southern hemisphere is reversed.
	if s := Sunset(-35.0, 149.0, 12, 21, 1995); s <= Sunset(-35.0, 149.0, 6, 21, 1995) {
		t.Errorf("southern summer sunset %d should be after southern winter", s)
	}
	// Polar regions clamp rather than fail.
	if h := Sunset(89.0, 0, 6, 21, 1995); h != 23 {
		t.Errorf("midnight sun should clamp to 23, got %d", h)
	}
	if h := Sunset(89.0, 0, 12, 21, 1995); h != 12 {
		t.Errorf("polar night should clamp to 12, got %d", h)
	}
}

func TestSunsetPrimitive(t *testing.T) {
	arg := object.Tuple(object.Real(40.7), object.Real(-74.0),
		object.Nat(6), object.Nat(25), object.Nat(1995))
	got := call(t, "sunset", arg)
	if got.Kind != object.KNat {
		t.Fatalf("sunset returned %s", got.Kind)
	}
	if got.N < 18 || got.N > 21 {
		t.Errorf("sunset hour = %d", got.N)
	}
}

func TestMathPrimitives(t *testing.T) {
	if got := call(t, "sqrt", object.Real(9)); got.R != 3 {
		t.Errorf("sqrt(9) = %v", got)
	}
	if got := call(t, "pow", object.Tuple(object.Real(2), object.Real(10))); got.R != 1024 {
		t.Errorf("2^10 = %v", got)
	}
	if got := call(t, "sqrt", object.Real(-1)); !got.IsBottom() {
		t.Errorf("sqrt(-1) = %s, want bottom", got)
	}
	if got := call(t, "real", object.Nat(3)); got.Kind != object.KReal || got.R != 3 {
		t.Errorf("real(3) = %s", got)
	}
	if got := call(t, "trunc", object.Real(3.9)); got.N != 3 {
		t.Errorf("trunc(3.9) = %s", got)
	}
	if got := call(t, "round", object.Real(3.9)); got.N != 4 {
		t.Errorf("round(3.9) = %s", got)
	}
	if got := call(t, "trunc", object.Real(-1)); !got.IsBottom() {
		t.Errorf("trunc(-1) = %s, want bottom", got)
	}
}

func TestDaysSinceJan1(t *testing.T) {
	if d := daysSinceJan1(1, 1, 1995); d != 0 {
		t.Errorf("Jan 1 = %d", d)
	}
	if d := daysSinceJan1(3, 1, 1995); d != 59 {
		t.Errorf("Mar 1 non-leap = %d, want 59", d)
	}
	if d := daysSinceJan1(3, 1, 1996); d != 60 {
		t.Errorf("Mar 1 leap = %d, want 60", d)
	}
	if d := daysSinceJan1(3, 1, 1900); d != 59 {
		t.Errorf("Mar 1 1900 (not leap) = %d, want 59", d)
	}
	if d := daysSinceJan1(3, 1, 2000); d != 60 {
		t.Errorf("Mar 1 2000 (leap) = %d, want 60", d)
	}
}
