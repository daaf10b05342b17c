// Package codec implements the wire-efficiency layer of the distributed
// deployment (DESIGN.md §6): compact encodings of the model parameter
// vectors exchanged between device hosts, edge servers and the cloud.
//
// The observation the package exploits is that almost every transfer in
// hierarchical federated learning is *close to a vector the receiver
// already holds* — the edge base model a device just trained from, the
// previous step's base, the last global model the cloud distributed.
// SchemeDelta encodes against such a shared baseline: XORing the IEEE-754
// bit patterns zeroes the sign, the exponent and the agreeing mantissa
// prefix of every parameter, grouping the XORed words byte-plane by
// byte-plane turns those zeroed bits into long runs, and DEFLATE collapses
// the runs. The pipeline is exactly invertible, so the decoder recovers the
// original float64s bit for bit — NaN payloads, signed zeros and denormals
// included — and a run over the delta path follows the same learning
// trajectory as one over raw vectors.
//
// Baselines are negotiated by ID: the sender names the shared vector in
// Blob.Baseline and the receiver must hold the same bits under that ID
// (internal/fed installs them with the Device.SetBase RPC). Baseline 0 is
// the implicit all-zeros vector, so a fresh stream can always start without
// negotiation.
//
// Two lossy schemes trade fidelity for further reduction on finite-valued
// vectors: SchemeFloat32 casts to float32 before the delta (2× before
// compression), and SchemeInt8 range-quantizes the residual against the
// baseline to one byte per parameter, with sender-side error feedback so
// quantization errors cancel over successive transfers instead of
// accumulating. Both are opt-in; the default path is lossless.
package codec

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sync"
)

// ErrUnknownBaseline reports that a blob references a baseline vector the
// decoder does not hold. Callers detect it with errors.Is locally and by
// substring across net/rpc (which flattens errors to strings) and recover
// by resending without a baseline.
var ErrUnknownBaseline = errors.New("codec: unknown baseline")

// Scheme selects a wire encoding. The zero value is SchemeDelta, the
// lossless default path.
type Scheme uint8

const (
	// SchemeDelta XORs the parameters' float64 bit patterns against the
	// baseline (all zeros when Blob.Baseline == 0), byte-shuffles and
	// DEFLATE-compresses the result. Lossless: decodes bit-exactly.
	SchemeDelta Scheme = iota
	// SchemeRaw is the legacy wire format — eight little-endian bytes per
	// parameter, no baseline, no compression. It exists so the measured
	// cost of the pre-codec protocol stays reproducible.
	SchemeRaw
	// SchemeFloat32 casts each parameter to float32 and delta-encodes the
	// 32-bit patterns against the float32-cast baseline. Lossy: decoding
	// yields float64(float32(v)). Assumes finite values.
	SchemeFloat32
	// SchemeInt8 range-quantizes the residual params−baseline (the raw
	// values when there is no baseline) to one byte per parameter plus a
	// 16-byte range header. With an error-feedback buffer the quantization
	// error is carried into the next encode instead of being lost. Assumes
	// finite values.
	SchemeInt8

	schemeCount
)

// String names the scheme as accepted by ParseScheme.
func (s Scheme) String() string {
	switch s {
	case SchemeDelta:
		return "delta"
	case SchemeRaw:
		return "raw"
	case SchemeFloat32:
		return "float32"
	case SchemeInt8:
		return "int8"
	default:
		return fmt.Sprintf("scheme(%d)", uint8(s))
	}
}

// Validate reports whether the scheme is known.
func (s Scheme) Validate() error {
	if s >= schemeCount {
		return fmt.Errorf("codec: unknown scheme %d", uint8(s))
	}
	return nil
}

// Lossless reports whether the scheme decodes bit-exactly.
func (s Scheme) Lossless() bool { return s == SchemeDelta || s == SchemeRaw }

// ParseScheme maps a CLI/config name to a scheme.
func ParseScheme(name string) (Scheme, error) {
	for s := Scheme(0); s < schemeCount; s++ {
		if s.String() == name {
			return s, nil
		}
	}
	return 0, fmt.Errorf("codec: unknown scheme %q (want delta | raw | float32 | int8)", name)
}

// Schemes lists every wire scheme, lossless first.
func Schemes() []Scheme {
	return []Scheme{SchemeDelta, SchemeRaw, SchemeFloat32, SchemeInt8}
}

// Blob is one encoded parameter vector as it travels over the wire.
type Blob struct {
	// Scheme is the encoding of Data; decoders dispatch on this field.
	Scheme Scheme
	// Baseline identifies the shared vector the payload was encoded
	// against; 0 is the implicit all-zeros baseline.
	Baseline uint64
	// Count is the number of parameters in the vector.
	Count int
	// Data is the scheme-specific payload.
	Data []byte
}

// Encode packs params into a Blob under the given scheme. baseline and
// baseID name the shared vector to delta against and must be given together
// (nil and 0 for none); SchemeRaw ignores them. ef, when non-nil, is the
// sender-side error-feedback buffer of the stream — SchemeInt8 adds it to
// the residual before quantizing and overwrites it with the new quantization
// error; lossless schemes leave it untouched.
func Encode(scheme Scheme, params, baseline []float64, baseID uint64, ef []float64) (Blob, error) {
	if err := scheme.Validate(); err != nil {
		return Blob{}, err
	}
	if (baseline == nil) != (baseID == 0) {
		return Blob{}, fmt.Errorf("codec: baseline vector and baseline id must be given together")
	}
	if baseline != nil && len(baseline) != len(params) {
		return Blob{}, fmt.Errorf("codec: baseline length %d != params length %d", len(baseline), len(params))
	}
	if ef != nil && len(ef) != len(params) {
		return Blob{}, fmt.Errorf("codec: error-feedback length %d != params length %d", len(ef), len(params))
	}
	n := len(params)
	switch scheme {
	case SchemeRaw:
		data := make([]byte, 8*n)
		for i, p := range params {
			binary.LittleEndian.PutUint64(data[8*i:], math.Float64bits(p))
		}
		return Blob{Scheme: SchemeRaw, Count: n, Data: data}, nil

	case SchemeDelta:
		data, err := deflateBytes(xorShuffle64(params, baseline))
		if err != nil {
			return Blob{}, err
		}
		return Blob{Scheme: SchemeDelta, Baseline: baseID, Count: n, Data: data}, nil

	case SchemeFloat32:
		data, err := deflateBytes(xorShuffle32(params, baseline))
		if err != nil {
			return Blob{}, err
		}
		return Blob{Scheme: SchemeFloat32, Baseline: baseID, Count: n, Data: data}, nil

	default: // SchemeInt8
		return encodeInt8(params, baseline, baseID, ef)
	}
}

// Decode unpacks a Blob. baseline must be the vector named by b.Baseline
// (nil when b.Baseline == 0); passing a mismatched pair is an error.
func Decode(b Blob, baseline []float64) ([]float64, error) {
	if err := b.Scheme.Validate(); err != nil {
		return nil, err
	}
	if (baseline == nil) != (b.Baseline == 0) {
		return nil, fmt.Errorf("codec: blob baseline %d mismatches supplied vector (have=%v): %w",
			b.Baseline, baseline != nil, ErrUnknownBaseline)
	}
	if baseline != nil && len(baseline) != b.Count {
		return nil, fmt.Errorf("codec: baseline length %d != blob count %d", len(baseline), b.Count)
	}
	if b.Count < 0 || b.Count > maxCount {
		return nil, fmt.Errorf("codec: parameter count %d out of range", b.Count)
	}
	n := b.Count
	switch b.Scheme {
	case SchemeRaw:
		if len(b.Data) != 8*n {
			return nil, fmt.Errorf("codec: raw blob has %d bytes for %d params", len(b.Data), n)
		}
		out := make([]float64, n)
		for i := range out {
			out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b.Data[8*i:]))
		}
		return out, nil

	case SchemeDelta:
		planes, err := inflateBytes(b.Data, 8*n)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			var u uint64
			for p := 0; p < 8; p++ {
				u |= uint64(planes[p*n+i]) << (8 * p)
			}
			if baseline != nil {
				u ^= math.Float64bits(baseline[i])
			}
			out[i] = math.Float64frombits(u)
		}
		return out, nil

	case SchemeFloat32:
		planes, err := inflateBytes(b.Data, 4*n)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i := range out {
			u := uint32(planes[i]) | uint32(planes[n+i])<<8 |
				uint32(planes[2*n+i])<<16 | uint32(planes[3*n+i])<<24
			if baseline != nil {
				u ^= math.Float32bits(float32(baseline[i]))
			}
			out[i] = float64(math.Float32frombits(u))
		}
		return out, nil

	default: // SchemeInt8
		return decodeInt8(b, baseline)
	}
}

// encodeInt8 quantizes the residual params−baseline(+ef) — or the raw
// values when baseline is nil — to the byte range of its own min/max. The
// 16-byte header stores the range; the quantization error of each parameter
// lands in ef for the stream's next encode.
func encodeInt8(params, baseline []float64, baseID uint64, ef []float64) (Blob, error) {
	n := len(params)
	res := make([]float64, n)
	lo, hi := math.Inf(1), math.Inf(-1)
	for i, p := range params {
		r := p
		if baseline != nil {
			r -= baseline[i]
		}
		if ef != nil {
			r += ef[i]
		}
		res[i] = r
		if r < lo {
			lo = r
		}
		if r > hi {
			hi = r
		}
	}
	if n == 0 {
		lo, hi = 0, 0
	}
	if math.IsInf(lo, 0) || math.IsInf(hi, 0) || math.IsNaN(lo) || math.IsNaN(hi) {
		return Blob{}, fmt.Errorf("codec: int8 quantization needs finite residuals (range [%v, %v])", lo, hi)
	}
	span := hi - lo
	raw := make([]byte, 16+n)
	binary.LittleEndian.PutUint64(raw[0:], math.Float64bits(lo))
	binary.LittleEndian.PutUint64(raw[8:], math.Float64bits(hi))
	for i, r := range res {
		q := 0
		if span > 0 {
			q = int(math.Round((r - lo) / span * 255))
			if q < 0 {
				q = 0
			} else if q > 255 {
				q = 255
			}
		}
		raw[16+i] = byte(q)
		if ef != nil {
			dq := lo
			if span > 0 {
				dq = lo + span*float64(q)/255
			}
			ef[i] = r - dq
		}
	}
	data, err := deflateBytes(raw)
	if err != nil {
		return Blob{}, err
	}
	return Blob{Scheme: SchemeInt8, Baseline: baseID, Count: n, Data: data}, nil
}

func decodeInt8(b Blob, baseline []float64) ([]float64, error) {
	raw, err := inflateBytes(b.Data, 16+b.Count)
	if err != nil {
		return nil, err
	}
	lo := math.Float64frombits(binary.LittleEndian.Uint64(raw[0:]))
	hi := math.Float64frombits(binary.LittleEndian.Uint64(raw[8:]))
	span := hi - lo
	out := make([]float64, b.Count)
	for i := range out {
		v := lo
		if span > 0 {
			v = lo + span*float64(raw[16+i])/255
		}
		if baseline != nil {
			v += baseline[i]
		}
		out[i] = v
	}
	return out, nil
}

// xorShuffle64 XORs each parameter's float64 bits against the baseline's
// (zeros when baseline is nil) and transposes the n×8 little-endian byte
// matrix into eight planes — all lowest bytes first, all highest bytes
// last. Matching sign/exponent/mantissa-prefix bits become runs of zeros in
// the high planes, which is exactly what DEFLATE compresses best.
func xorShuffle64(params, baseline []float64) []byte {
	n := len(params)
	out := make([]byte, 8*n)
	for i, p := range params {
		u := math.Float64bits(p)
		if baseline != nil {
			u ^= math.Float64bits(baseline[i])
		}
		for b := 0; b < 8; b++ {
			out[b*n+i] = byte(u >> (8 * b))
		}
	}
	return out
}

// xorShuffle32 is xorShuffle64 for float32-cast values (four planes).
func xorShuffle32(params, baseline []float64) []byte {
	n := len(params)
	out := make([]byte, 4*n)
	for i, p := range params {
		u := math.Float32bits(float32(p))
		if baseline != nil {
			u ^= math.Float32bits(float32(baseline[i]))
		}
		out[i] = byte(u)
		out[n+i] = byte(u >> 8)
		out[2*n+i] = byte(u >> 16)
		out[3*n+i] = byte(u >> 24)
	}
	return out
}

// DEFLATE state is pooled: a BestCompression writer allocates and zeroes
// close to a megabyte, and a reader tens of kilobytes. flate documents a
// Reset writer or reader as equivalent to a freshly built one, so pooled
// blobs are byte-identical to unpooled ones.
var (
	deflaters sync.Pool // *flate.Writer at BestCompression
	inflaters sync.Pool // io.ReadCloser from flate.NewReader, a flate.Resetter
)

func deflateBytes(p []byte) ([]byte, error) {
	var buf bytes.Buffer
	w, _ := deflaters.Get().(*flate.Writer)
	if w == nil {
		var err error
		if w, err = flate.NewWriter(&buf, flate.BestCompression); err != nil {
			return nil, fmt.Errorf("codec: deflate init: %w", err)
		}
	} else {
		w.Reset(&buf)
	}
	defer deflaters.Put(w)
	if _, err := w.Write(p); err != nil {
		return nil, fmt.Errorf("codec: deflate: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("codec: deflate close: %w", err)
	}
	return buf.Bytes(), nil
}

// maxCount is the largest parameter count a blob may declare: one whose
// eight-byte planes still have a length that fits an int.
const maxCount = math.MaxInt / 8

// maxInflateRatio bounds DEFLATE's expansion. The cheapest symbol pair — a
// length-258 match with one-bit length and distance codes — costs two bits,
// so p can inflate to at most 1032·len(p) bytes.
const maxInflateRatio = 1032

// inflateBytes inflates p, which must hold exactly want bytes. A want that p
// cannot reach is rejected before the output is allocated, so a blob that
// declares a huge count costs nothing.
func inflateBytes(p []byte, want int) ([]byte, error) {
	if want > maxInflateRatio*len(p) {
		return nil, fmt.Errorf("codec: %d-byte payload cannot inflate to the declared %d bytes", len(p), want)
	}
	src := bytes.NewReader(p)
	r, _ := inflaters.Get().(io.ReadCloser)
	if r == nil {
		r = flate.NewReader(src)
	} else if err := r.(flate.Resetter).Reset(src, nil); err != nil {
		return nil, fmt.Errorf("codec: inflate reset: %w", err)
	}
	defer inflaters.Put(r)
	out := make([]byte, want)
	if _, err := io.ReadFull(r, out); err != nil {
		return nil, fmt.Errorf("codec: inflate %d bytes: %w", want, err)
	}
	var tail [1]byte
	if n, err := r.Read(tail[:]); n != 0 || (err != nil && err != io.EOF) {
		return nil, fmt.Errorf("codec: payload longer than declared %d bytes", want)
	}
	if err := r.Close(); err != nil {
		return nil, fmt.Errorf("codec: inflate close: %w", err)
	}
	return out, nil
}
