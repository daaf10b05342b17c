package codec

import (
	"math"
	"testing"
)

// fuzzBaselineCap bounds the baseline vector FuzzDecode builds. A blob that
// declares more parameters gets a shorter baseline, which Decode must reject.
const fuzzBaselineCap = 1 << 12

// fuzzBaseline is the baseline FuzzDecode pairs with a blob of count
// parameters. It is a fixed function of count, so the seed corpus can hold
// blobs encoded against it.
func fuzzBaseline(count int) []float64 {
	v := make([]float64, min(max(count, 0), fuzzBaselineCap))
	for i := range v {
		v[i] = float64(i%13)/8 - 0.75
	}
	return v
}

// FuzzDecode feeds Decode and Decode32 arbitrary blobs, as a receiver gets
// them off the wire. Neither may panic: each returns an error or exactly
// Count values. A blob that decodes under a lossless scheme re-encodes and
// decodes back bit-exactly, and so does a float32 blob through Encode32 and
// Decode32. The seed corpus in testdata/fuzz/FuzzDecode holds an Encode
// output for every scheme with and without a baseline, a truncated payload
// and a blob declaring more parameters than its payload holds.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, scheme uint8, withBaseline bool, count int, data []byte) {
		b := Blob{Scheme: Scheme(scheme), Count: count, Data: data}
		var baseline []float64
		if withBaseline {
			b.Baseline, baseline = 1, fuzzBaseline(count)
		}
		out, err := Decode(b, baseline)
		if err != nil {
			return
		}
		if len(out) != count {
			t.Fatalf("Decode of a %d-parameter %v blob returned %d values", count, b.Scheme, len(out))
		}
		if b.Scheme.Lossless() {
			again, err := Encode(b.Scheme, out, baseline, b.Baseline, nil)
			if err != nil {
				t.Fatalf("re-encode of decoded %v values: %v", b.Scheme, err)
			}
			if again.Baseline == 0 {
				baseline = nil // SchemeRaw encodes without a baseline
			}
			back, err := Decode(again, baseline)
			if err != nil {
				t.Fatalf("decode of re-encoded %v blob: %v", b.Scheme, err)
			}
			bitsEqual(t, back, out, b.Scheme.String()+" round trip")
		}
		if b.Scheme != SchemeFloat32 {
			return
		}
		var base32 []float32
		if baseline != nil {
			base32 = make([]float32, len(baseline))
			for i, v := range baseline {
				base32[i] = float32(v)
			}
		}
		out32, err := Decode32(b, base32)
		if err != nil {
			t.Fatalf("Decode accepted a float32 blob that Decode32 rejects: %v", err)
		}
		if len(out32) != count {
			t.Fatalf("Decode32 of a %d-parameter blob returned %d values", count, len(out32))
		}
		again, err := Encode32(out32, base32, b.Baseline)
		if err != nil {
			t.Fatalf("re-encode of decoded float32 values: %v", err)
		}
		back, err := Decode32(again, base32)
		if err != nil {
			t.Fatalf("decode of re-encoded float32 blob: %v", err)
		}
		for i := range out32 {
			if math.Float32bits(back[i]) != math.Float32bits(out32[i]) {
				t.Fatalf("float32 round trip: param %d = %x, want %x", i, math.Float32bits(back[i]), math.Float32bits(out32[i]))
			}
		}
	})
}
