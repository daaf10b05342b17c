package codec

import (
	"bytes"
	"compress/flate"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// adversarial holds the float64 special cases the lossless contract must
// preserve bit-for-bit.
var adversarial = []float64{
	0, math.Copysign(0, -1),
	math.Inf(1), math.Inf(-1),
	math.NaN(),
	math.Float64frombits(0x7FF8DEADBEEF0001), // quiet NaN with payload
	math.Float64frombits(0x7FF0000000000001), // signalling-NaN bit pattern
	math.Float64frombits(1),                  // smallest positive denormal
	math.Float64frombits(0x000FFFFFFFFFFFFF), // largest denormal
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
	math.MaxFloat64, -math.MaxFloat64,
	1.0, -1.0, math.Pi, 1e-300, -1e300,
}

func bitsEqual(t *testing.T, got, want []float64, label string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: param %d = %x, want %x", label,
				i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// TestLosslessRoundtripBitExact drives the lossless schemes over random and
// adversarial vectors, with and without a baseline, and demands bit
// identity. Random values are drawn as raw bit patterns, so the space of
// NaN payloads, denormals and infinities is sampled too.
func TestLosslessRoundtripBitExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(200)
		params := make([]float64, n)
		baseline := make([]float64, n)
		for i := range params {
			if trial%2 == 0 {
				params[i] = math.Float64frombits(rng.Uint64())
				baseline[i] = math.Float64frombits(rng.Uint64())
			} else {
				params[i] = rng.NormFloat64()
				baseline[i] = params[i] + 1e-4*rng.NormFloat64()
			}
		}
		copy(params, adversarial[:min(n, len(adversarial))])
		for _, scheme := range []Scheme{SchemeDelta, SchemeRaw} {
			// Without baseline.
			blob, err := Encode(scheme, params, nil, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Decode(blob, nil)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, got, params, scheme.String()+" no-baseline")
			// With baseline (raw ignores it by contract).
			if scheme == SchemeRaw {
				continue
			}
			blob, err = Encode(scheme, params, baseline, 42, nil)
			if err != nil {
				t.Fatal(err)
			}
			if blob.Baseline != 42 {
				t.Fatalf("blob baseline %d, want 42", blob.Baseline)
			}
			got, err = Decode(blob, baseline)
			if err != nil {
				t.Fatal(err)
			}
			bitsEqual(t, got, params, scheme.String()+" baseline")
		}
	}
}

// TestDeltaCompressesSGDLikeVectors checks the delta path shrinks the
// payload on its target workloads. Low mantissa bits of SGD-perturbed
// float64s are incompressible noise, so a vector a relative ~1e-3 from its
// baseline only zeroes the sign/exponent/mantissa-prefix planes (measured
// ~1.1-1.25x on real MLP training vectors — the big wire savings in
// internal/fed are structural, not entropy); the ratio grows as vectors
// agree more and becomes extreme for identical ones.
func TestDeltaCompressesSGDLikeVectors(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n := 4096
	base := make([]float64, n)
	params := make([]float64, n)
	for i := range base {
		base[i] = 0.3 * rng.NormFloat64()
		params[i] = base[i] * (1 + 1e-3*rng.NormFloat64())
	}
	raw := 8 * n
	blob, err := Encode(SchemeDelta, params, base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob.Data) >= raw*15/16 {
		t.Fatalf("delta blob %d bytes, want < %d (raw %d)", len(blob.Data), raw*15/16, raw)
	}
	t.Logf("sgd-like delta: %d -> %d bytes (%.2fx)", raw, len(blob.Data), float64(raw)/float64(len(blob.Data)))

	// An unchanged vector must collapse to almost nothing.
	same, err := Encode(SchemeDelta, base, base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(same.Data) >= raw/100 {
		t.Fatalf("identical-vector delta blob %d bytes, want < %d", len(same.Data), raw/100)
	}

	// A sparse change (1% of params touched) should compress hard too.
	sparse := append([]float64(nil), base...)
	for i := 0; i < n/100; i++ {
		sparse[rng.Intn(n)] += rng.NormFloat64()
	}
	sp, err := Encode(SchemeDelta, sparse, base, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Data) >= raw/10 {
		t.Fatalf("sparse-change delta blob %d bytes, want < %d", len(sp.Data), raw/10)
	}
}

func TestFloat32RoundtripIsCastExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := 257
	params := make([]float64, n)
	base := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64() * 10
		base[i] = params[i] + 0.01*rng.NormFloat64()
	}
	for _, withBase := range []bool{false, true} {
		var blob Blob
		var err error
		if withBase {
			blob, err = Encode(SchemeFloat32, params, base, 9, nil)
		} else {
			blob, err = Encode(SchemeFloat32, params, nil, 0, nil)
		}
		if err != nil {
			t.Fatal(err)
		}
		bl := base
		if !withBase {
			bl = nil
		}
		got, err := Decode(blob, bl)
		if err != nil {
			t.Fatal(err)
		}
		for i := range got {
			want := float64(float32(params[i]))
			if math.Float64bits(got[i]) != math.Float64bits(want) {
				t.Fatalf("withBase=%v param %d = %v, want float32 cast %v", withBase, i, got[i], want)
			}
		}
	}
}

func TestInt8QuantizationBoundAndErrorFeedback(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	n := 512
	params := make([]float64, n)
	base := make([]float64, n)
	for i := range params {
		base[i] = rng.NormFloat64()
		params[i] = base[i] + 0.05*rng.NormFloat64()
	}
	ef := make([]float64, n)
	blob, err := Encode(SchemeInt8, params, base, 5, ef)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob, base)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for i := range params {
		r := params[i] - base[i]
		lo = math.Min(lo, r)
		hi = math.Max(hi, r)
	}
	step := (hi - lo) / 255
	for i := range got {
		if diff := math.Abs(got[i] - params[i]); diff > step+1e-12 {
			t.Fatalf("param %d off by %v, quantization step %v", i, diff, step)
		}
		if math.Abs(ef[i]) > step+1e-12 {
			t.Fatalf("error feedback %d = %v exceeds step %v", i, ef[i], step)
		}
	}
}

// TestInt8ErrorFeedbackConverges repeatedly transfers the same target over
// one stream: with error feedback the mean of the decoded vectors converges
// to the target (the per-transfer quantization errors telescope).
func TestInt8ErrorFeedbackConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	n := 64
	params := make([]float64, n)
	base := make([]float64, n)
	for i := range params {
		base[i] = rng.NormFloat64()
		params[i] = base[i] + 0.1*rng.NormFloat64()
	}
	ef := make([]float64, n)
	sum := make([]float64, n)
	const rounds = 200
	for k := 0; k < rounds; k++ {
		blob, err := Encode(SchemeInt8, params, base, 1, ef)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob, base)
		if err != nil {
			t.Fatal(err)
		}
		for i := range sum {
			sum[i] += got[i]
		}
	}
	for i := range sum {
		mean := sum[i] / rounds
		if math.Abs(mean-params[i]) > 1e-3 {
			t.Fatalf("param %d mean %v, want %v (error feedback not cancelling)", i, mean, params[i])
		}
	}
}

// TestInt8WithoutBaselineQuantizesValues covers the baseline-free int8
// path: the raw values themselves are range-quantized, within one
// quantization step of the original.
func TestInt8WithoutBaselineQuantizesValues(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	n := 256
	params := make([]float64, n)
	for i := range params {
		params[i] = rng.NormFloat64()
	}
	blob, err := Encode(SchemeInt8, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if blob.Scheme != SchemeInt8 || blob.Baseline != 0 {
		t.Fatalf("blob scheme %v baseline %d", blob.Scheme, blob.Baseline)
	}
	got, err := Decode(blob, nil)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, p := range params {
		lo = math.Min(lo, p)
		hi = math.Max(hi, p)
	}
	step := (hi - lo) / 255
	for i := range got {
		if diff := math.Abs(got[i] - params[i]); diff > step+1e-12 {
			t.Fatalf("param %d off by %v, quantization step %v", i, diff, step)
		}
	}
}

func TestInt8RejectsNonFiniteResidual(t *testing.T) {
	params := []float64{1, math.Inf(1)}
	base := []float64{0, 0}
	if _, err := Encode(SchemeInt8, params, base, 1, nil); err == nil {
		t.Fatal("expected error for non-finite residual")
	}
}

func TestSchemeParseAndString(t *testing.T) {
	for _, s := range Schemes() {
		got, err := ParseScheme(s.String())
		if err != nil {
			t.Fatal(err)
		}
		if got != s {
			t.Fatalf("ParseScheme(%q) = %v", s.String(), got)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ParseScheme("zstd"); err == nil {
		t.Fatal("expected error for unknown scheme name")
	}
	if err := Scheme(99).Validate(); err == nil {
		t.Fatal("expected error for unknown scheme value")
	}
}

func TestEncodeValidation(t *testing.T) {
	params := []float64{1, 2}
	if _, err := Encode(Scheme(99), params, nil, 0, nil); err == nil {
		t.Fatal("unknown scheme accepted")
	}
	if _, err := Encode(SchemeDelta, params, []float64{1}, 1, nil); err == nil {
		t.Fatal("baseline length mismatch accepted")
	}
	if _, err := Encode(SchemeDelta, params, []float64{1, 2}, 0, nil); err == nil {
		t.Fatal("baseline without id accepted")
	}
	if _, err := Encode(SchemeDelta, params, nil, 3, nil); err == nil {
		t.Fatal("id without baseline accepted")
	}
	if _, err := Encode(SchemeInt8, params, []float64{0, 0}, 1, []float64{0}); err == nil {
		t.Fatal("error-feedback length mismatch accepted")
	}
}

func TestDecodeValidation(t *testing.T) {
	params := []float64{1, 2, 3}
	blob, err := Encode(SchemeDelta, params, []float64{0, 0, 0}, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Baseline required but absent: ErrUnknownBaseline.
	if _, err := Decode(blob, nil); !errors.Is(err, ErrUnknownBaseline) {
		t.Fatalf("err = %v, want ErrUnknownBaseline", err)
	}
	// Baseline of the wrong length.
	if _, err := Decode(blob, []float64{0}); err == nil {
		t.Fatal("wrong-length baseline accepted")
	}
	// Unexpected baseline for a baseline-free blob.
	raw, err := Encode(SchemeRaw, params, nil, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(raw, []float64{0, 0, 0}); err == nil {
		t.Fatal("spurious baseline accepted")
	}
	// Truncated payloads.
	short := raw
	short.Data = short.Data[:8]
	if _, err := Decode(short, nil); err == nil {
		t.Fatal("truncated raw blob accepted")
	}
	trunc := blob
	trunc.Data = trunc.Data[:len(trunc.Data)/2]
	if _, err := Decode(trunc, []float64{0, 0, 0}); err == nil {
		t.Fatal("truncated delta blob accepted")
	}
	// Declared count shorter than the payload.
	lying := blob
	lying.Count = 2
	if _, err := Decode(lying, []float64{0, 0}); err == nil {
		t.Fatal("over-long payload accepted")
	}
	if _, err := Decode(Blob{Scheme: Scheme(88)}, nil); err == nil {
		t.Fatal("unknown blob scheme accepted")
	}
}

func TestEmptyVector(t *testing.T) {
	for _, scheme := range Schemes() {
		blob, err := Encode(scheme, nil, nil, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := Decode(blob, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Fatalf("scheme %v: %d params from empty vector", scheme, len(got))
		}
	}
}

// TestDecodeRejectsImpossibleCountBeforeAllocating: a 3-byte delta blob that
// declares 2²⁷ params (a 1 GiB inflate target) is rejected by DEFLATE's
// expansion bound without allocating the target, and a count whose byte
// length overflows an int is rejected outright, for Decode and Decode32.
func TestDecodeRejectsImpossibleCountBeforeAllocating(t *testing.T) {
	tiny := Blob{Scheme: SchemeDelta, Count: 1 << 27, Data: []byte{1, 2, 3}}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Decode(tiny, nil)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("3-byte blob declaring 2^27 params accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("rejecting the blob allocated %d bytes", grew)
	}
	for _, count := range []int{math.MaxInt/8 + 1, math.MaxInt/4 + 1, math.MaxInt} {
		for _, scheme := range Schemes() {
			if _, err := Decode(Blob{Scheme: scheme, Count: count, Data: []byte{1, 2, 3}}, nil); err == nil {
				t.Fatalf("%v blob with count %d accepted", scheme, count)
			}
		}
		if _, err := Decode32(Blob{Scheme: SchemeFloat32, Count: count, Data: []byte{1, 2, 3}}, nil); err == nil {
			t.Fatalf("Decode32 accepted count %d", count)
		}
	}
}

// TestAllZeroDeltaRoundTrips: a vector encoded against itself is all zero
// after the XOR and compresses close to DEFLATE's limit; the expansion bound
// must still admit it.
func TestAllZeroDeltaRoundTrips(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	v := make([]float64, 1<<20)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	blob, err := Encode(SchemeDelta, v, v, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(blob, v)
	if err != nil {
		t.Fatalf("%d-byte all-zero delta for %d params: %v", len(blob.Data), len(v), err)
	}
	bitsEqual(t, got, v, "all-zero delta")
}

// freshDeflate is the unpooled reference for deflateBytes: a new
// BestCompression writer per call, as the codec built before pooling.
func freshDeflate(t *testing.T, p []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := flate.NewWriter(&buf, flate.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Write(p); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// checkBlobMatchesFresh re-deflates a blob's inflated payload with a fresh
// writer and demands the blob's bytes exactly, then round-trips it.
func checkBlobMatchesFresh(t *testing.T, label string, b Blob, baseline []float64) {
	t.Helper()
	if b.Scheme != SchemeRaw {
		raw, err := io.ReadAll(flate.NewReader(bytes.NewReader(b.Data)))
		if err != nil {
			t.Fatalf("%s: inflate: %v", label, err)
		}
		if !bytes.Equal(b.Data, freshDeflate(t, raw)) {
			t.Fatalf("%s: pooled deflate output differs from a fresh writer's", label)
		}
	}
	if _, err := Decode(b, baseline); err != nil {
		t.Fatalf("%s: decode: %v", label, err)
	}
}

// TestPooledDeflateMatchesFreshWriter pins the DEFLATE pools: every scheme,
// with and without a baseline, at sizes from empty to a million parameters,
// encodes to exactly the bytes a fresh writer produces — after the pool has
// been warmed by a different vector, and under concurrent encodes (run with
// -race by scripts/check.sh).
func TestPooledDeflateMatchesFreshWriter(t *testing.T) {
	// Lossless schemes get raw bit patterns, as in
	// TestLosslessRoundtripBitExact; the lossy ones need finite values.
	vec := func(scheme Scheme, seed int64, n int) []float64 {
		rng := rand.New(rand.NewSource(seed))
		v := make([]float64, n)
		for i := range v {
			if scheme.Lossless() {
				v[i] = math.Float64frombits(rng.Uint64())
			} else {
				v[i] = 2*rng.Float64() - 1
			}
		}
		return v
	}
	sizes := []int{0, 1, 2410, 1 << 20}
	if testing.Short() {
		sizes = sizes[:3]
	}
	for _, n := range sizes {
		for _, scheme := range Schemes() {
			base, warm, params := vec(scheme, 1, n), vec(scheme, 2, n), vec(scheme, 3, n)
			for _, withBase := range []bool{false, true} {
				var bl []float64
				var id uint64
				if withBase && scheme != SchemeRaw {
					bl, id = base, 7
				}
				label := fmt.Sprintf("%v/n=%d/baseline=%v", scheme, n, bl != nil)
				if _, err := Encode(scheme, warm, bl, id, nil); err != nil {
					t.Fatal(err)
				}
				b, err := Encode(scheme, params, bl, id, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkBlobMatchesFresh(t, label, b, bl)
			}
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, scheme := range Schemes() {
				var base []float64
				var id uint64
				if scheme != SchemeRaw {
					base, id = vec(scheme, int64(10+g), 2410), 1
				}
				params := vec(scheme, int64(100+10*g+i), 2410)
				for rep := 0; rep < 3; rep++ {
					b, err := Encode(scheme, params, base, id, nil)
					if err != nil {
						t.Error(err)
						return
					}
					checkBlobMatchesFresh(t, fmt.Sprintf("goroutine %d/%v", g, scheme), b, base)
				}
			}
		}()
	}
	wg.Wait()
}
