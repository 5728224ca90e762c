// Package prim provides the standard external primitives that ship with
// the AQL system, mirroring how the paper's prototype registers SML
// functions as complex-object primitives (section 4, RegisterCO).
//
// Each primitive carries a declared type, since function values cannot be
// typed structurally. The set includes the scalar math functions that
// domain primitives need, and the two external algorithms used by the
// paper's examples:
//
//   - heatindex: the "predefined algorithm" of the motivating query
//     (section 1), implemented as the NWS Rothfusz heat-index regression
//     over a day's worth of (temperature °F, relative humidity %, wind
//     speed) readings, returning the day's maximum heat index;
//   - sunset: the external function of the session example (section 4.2),
//     implemented with the standard solar-declination approximation,
//     returning the local solar hour of sunset.
//
// The paper's authors used proprietary implementations of both; these
// stand-ins exercise the same code paths (externally registered scalar
// functions over array and tuple arguments).
package prim

import (
	"fmt"
	"math"

	"github.com/aqldb/aql/internal/object"
	"github.com/aqldb/aql/internal/types"
)

// Primitive is a named external function with its declared type.
type Primitive struct {
	Name string
	Fn   object.Value
	Type *types.Type
}

// Standard returns the standard primitive library.
func Standard() []Primitive {
	prims := []Primitive{
		{Name: "heatindex", Fn: object.Func(heatindexPrim),
			Type: types.MustParse("[[real * real * real]] -> real")},
		{Name: "sunset", Fn: object.Func(sunsetPrim),
			Type: types.MustParse("(real * real * nat * nat * nat) -> nat")},
		{Name: "real", Fn: object.Func(realPrim),
			Type: types.MustParse("nat -> real")},
		{Name: "trunc", Fn: object.Func(truncPrim),
			Type: types.MustParse("real -> nat")},
		{Name: "round", Fn: object.Func(roundPrim),
			Type: types.MustParse("real -> nat")},
		{Name: "neg", Fn: object.Func(negPrim),
			Type: types.MustParse("real -> real")},
	}
	unary := []struct {
		name string
		fn   func(float64) float64
	}{
		{"sqrt", math.Sqrt}, {"exp", math.Exp}, {"ln", math.Log},
		{"sin", math.Sin}, {"cos", math.Cos}, {"tan", math.Tan},
		{"asin", math.Asin}, {"acos", math.Acos}, {"atan", math.Atan},
		{"abs", math.Abs},
	}
	for _, u := range unary {
		fn := u.fn
		name := u.name
		prims = append(prims, Primitive{
			Name: name,
			Type: types.MustParse("real -> real"),
			Fn: object.Func(func(v object.Value) (object.Value, error) {
				f, err := v.AsReal()
				if err != nil {
					return object.Value{}, fmt.Errorf("%s: %w", name, err)
				}
				r := fn(f)
				if !object.IsFinite(r) {
					return object.Bottom(name + ": non-finite result"), nil
				}
				return object.Real(r), nil
			}),
		})
	}
	prims = append(prims, Primitive{
		Name: "pow",
		Type: types.MustParse("real * real -> real"),
		Fn: object.Func(func(v object.Value) (object.Value, error) {
			if v.Kind != object.KTuple || len(v.Elems) != 2 {
				return object.Value{}, fmt.Errorf("pow: expected a pair")
			}
			a, err := v.Elems[0].AsReal()
			if err != nil {
				return object.Value{}, fmt.Errorf("pow: %w", err)
			}
			b, err := v.Elems[1].AsReal()
			if err != nil {
				return object.Value{}, fmt.Errorf("pow: %w", err)
			}
			r := math.Pow(a, b)
			if !object.IsFinite(r) {
				return object.Bottom("pow: non-finite result"), nil
			}
			return object.Real(r), nil
		}),
	})
	return prims
}

// negPrim: real -> real. Naturals have no negation (subtraction is monus),
// so unary minus is a real operation; the surface parser desugars `-e`
// into neg!e.
func negPrim(v object.Value) (object.Value, error) {
	f, err := v.AsReal()
	if err != nil {
		return object.Value{}, fmt.Errorf("neg: %w", err)
	}
	return object.Real(-f), nil
}

func realPrim(v object.Value) (object.Value, error) {
	n, err := v.AsNat()
	if err != nil {
		return object.Value{}, fmt.Errorf("real: %w", err)
	}
	return object.Real(float64(n)), nil
}

func truncPrim(v object.Value) (object.Value, error) {
	f, err := v.AsReal()
	if err != nil {
		return object.Value{}, fmt.Errorf("trunc: %w", err)
	}
	if f < 0 {
		return object.Bottom("trunc: negative real has no natural truncation"), nil
	}
	return object.Nat(int64(f)), nil
}

func roundPrim(v object.Value) (object.Value, error) {
	f, err := v.AsReal()
	if err != nil {
		return object.Value{}, fmt.Errorf("round: %w", err)
	}
	r := math.Round(f)
	if r < 0 {
		return object.Bottom("round: negative real has no natural rounding"), nil
	}
	return object.Nat(int64(r)), nil
}

// HeatIndex computes the NWS (Rothfusz 1990) heat-index regression for a
// temperature in °F and relative humidity in percent, with the standard
// low-humidity and high-humidity adjustments.
func HeatIndex(tempF, rh float64) float64 {
	if tempF < 80 {
		// The simple Steadman average used below 80°F.
		return 0.5 * (tempF + 61 + (tempF-68)*1.2 + rh*0.094)
	}
	t, r := tempF, rh
	hi := -42.379 + 2.04901523*t + 10.14333127*r -
		0.22475541*t*r - 6.83783e-3*t*t - 5.481717e-2*r*r +
		1.22874e-3*t*t*r + 8.5282e-4*t*r*r - 1.99e-6*t*t*r*r
	switch {
	case r < 13 && t >= 80 && t <= 112:
		hi -= ((13 - r) / 4) * math.Sqrt((17-math.Abs(t-95))/17)
	case r > 85 && t >= 80 && t <= 87:
		hi += ((r - 85) / 10) * ((87 - t) / 5)
	}
	return hi
}

// heatindexPrim: [[real * real * real]] -> real. The input is a day's
// array of hourly (temperature °F, relative humidity %, wind speed)
// readings; the result is the maximum heat index over the day. Wind speed
// is accepted for interface fidelity with the paper's query but does not
// enter the NWS regression.
func heatindexPrim(v object.Value) (object.Value, error) {
	if v.Kind != object.KArray || len(v.Shape) != 1 {
		return object.Value{}, fmt.Errorf("heatindex: expected a one-dimensional array, got %s", v.Kind)
	}
	cells := v.Elems
	if len(cells) == 0 {
		return object.Bottom("heatindex: empty day"), nil
	}
	maxHI := math.Inf(-1)
	for i, reading := range cells {
		if reading.Kind != object.KTuple || len(reading.Elems) != 3 {
			return object.Value{}, fmt.Errorf("heatindex: reading %d is not a (temp, rh, ws) triple", i)
		}
		t, err := reading.Elems[0].AsReal()
		if err != nil {
			return object.Value{}, fmt.Errorf("heatindex: reading %d: %w", i, err)
		}
		rh, err := reading.Elems[1].AsReal()
		if err != nil {
			return object.Value{}, fmt.Errorf("heatindex: reading %d: %w", i, err)
		}
		if hi := HeatIndex(t, rh); hi > maxHI {
			maxHI = hi
		}
	}
	return object.Real(maxHI), nil
}

// Sunset computes the local solar hour (0-23) of sunset for the given
// latitude/longitude and date, using the standard solar-declination
// approximation: δ = -23.45° · cos(360/365 · (d + 10)) and the sunset hour
// angle cos ω = -tan φ · tan δ. Longitude shifts local solar time within
// the hour only, so it contributes through rounding.
func Sunset(lat, lon float64, month, day, year int) int {
	d := daysSinceJan1(month, day, year)
	decl := -23.45 * math.Pi / 180 * math.Cos(2*math.Pi/365*float64(d+10))
	phi := lat * math.Pi / 180
	cosOmega := -math.Tan(phi) * math.Tan(decl)
	switch {
	case cosOmega <= -1:
		return 23 // midnight sun: no sunset; clamp to end of day
	case cosOmega >= 1:
		return 12 // polar night: clamp to noon
	}
	omega := math.Acos(cosOmega) // hour angle in radians
	hours := omega * 12 / math.Pi
	// Fractional longitude offset from the timezone meridian.
	frac := math.Mod(lon, 15) / 15
	h := int(math.Round(12 + hours - frac))
	if h < 0 {
		h = 0
	}
	if h > 23 {
		h = 23
	}
	return h
}

func daysSinceJan1(month, day, year int) int {
	lens := [12]int{31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31}
	if year%4 == 0 && (year%100 != 0 || year%400 == 0) {
		lens[1] = 29
	}
	d := day - 1
	for m := 0; m < month-1 && m < 12; m++ {
		d += lens[m]
	}
	return d
}

// sunsetPrim: (real * real * nat * nat * nat) -> nat, matching the paper's
// sunset(lat, lon, month, day, year) registration.
func sunsetPrim(v object.Value) (object.Value, error) {
	if v.Kind != object.KTuple || len(v.Elems) != 5 {
		return object.Value{}, fmt.Errorf("sunset: expected (lat, lon, month, day, year)")
	}
	lat, err := v.Elems[0].AsReal()
	if err != nil {
		return object.Value{}, fmt.Errorf("sunset: lat: %w", err)
	}
	lon, err := v.Elems[1].AsReal()
	if err != nil {
		return object.Value{}, fmt.Errorf("sunset: lon: %w", err)
	}
	var nats [3]int64
	for i := 0; i < 3; i++ {
		n, err := v.Elems[2+i].AsNat()
		if err != nil {
			return object.Value{}, fmt.Errorf("sunset: date component %d: %w", i, err)
		}
		nats[i] = n
	}
	return object.Nat(int64(Sunset(lat, lon, int(nats[0]), int(nats[1]), int(nats[2])))), nil
}
