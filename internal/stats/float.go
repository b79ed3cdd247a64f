package stats

import (
	"math"
	"strconv"
)

// Float is a JSON-safe float64, the cell type of every float field a
// run report serializes: NaN and ±Inf marshal as null (JSON has no
// encoding for them) and null unmarshals back to NaN, so a missing
// cell survives a round trip without poisoning arithmetic. Values
// print in strconv's shortest 'g' form (17e6 is 1.7e+07), which is the
// report's byte format. gob encodes it as a plain float64.
type Float float64

// MarshalJSON renders non-finite values as null.
func (f Float) MarshalJSON() ([]byte, error) { return f.AppendJSON(nil), nil }

// AppendJSON appends f's JSON form, as MarshalJSON returns it, to b.
func (f Float) AppendJSON(b []byte) []byte {
	v := float64(f)
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return append(b, "null"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// UnmarshalJSON accepts numbers and null (null becomes NaN).
func (f *Float) UnmarshalJSON(b []byte) error {
	if string(b) == "null" {
		*f = Float(math.NaN())
		return nil
	}
	v, err := strconv.ParseFloat(string(b), 64)
	if err != nil {
		return err
	}
	*f = Float(v)
	return nil
}

// IsNaN reports whether the cell is missing.
func (f Float) IsNaN() bool { return math.IsNaN(float64(f)) }
