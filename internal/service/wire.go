package service

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"
)

// The query path's wire format, without encoding/json's reflection on
// the requests and replies it serves most: query bodies are read whole
// and decoded in one pass (decodeQuery), and replies are appended into
// one buffer and written with one Write (the append functions below),
// byte for byte what json.NewEncoder(w).Encode writes for the same
// value. The json tags on queryRequest, queryResponse and streamLine
// stay the reference both directions are tested against.

// maxPooledBuf caps the buffers bufPool keeps: one that grew past it
// for a large body or reply (hundreds of mappings) is dropped after use
// rather than put back, so a single large request does not stay pinned
// in the pool, and the pool's share of the live heap stays small.
const maxPooledBuf = 16 << 10

// bufPool holds the byte buffers the query path reads bodies into,
// unescapes patterns into and appends replies into. It stores *[]byte
// so that a Put does not allocate.
var bufPool sync.Pool

func getBuf() *[]byte {
	if b, ok := bufPool.Get().(*[]byte); ok {
		return b
	}
	b := make([]byte, 0, 1<<10)
	return &b
}

func putBuf(b *[]byte) {
	if cap(*b) > maxPooledBuf {
		return
	}
	*b = (*b)[:0]
	bufPool.Put(b)
}

// readBody appends everything r yields to b.
func readBody(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// decodeQuery decodes a query body as json.NewDecoder on body would
// decode its first value into req, and appends the pattern text to
// text. A body of the shape clients post is decoded by scanQuery in one
// pass; any other goes to encoding/json itself, so which bodies are
// accepted, what they decode to and the error texts stay encoding/json's.
func decodeQuery(body []byte, req *queryRequest, text []byte) ([]byte, error) {
	if t, ok := scanQuery(body, req, text); ok {
		return t, nil
	}
	var fb queryRequest
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&fb); err != nil {
		return text, err
	}
	*req = fb
	return append(text, fb.Pattern...), nil
}

// Bits of queryRequest's fields, as scanQuery tracks the keys it saw.
const (
	keyPattern = 1 << iota
	keySemantics
	keyAlgorithm
	keyLimit
	keyTimeout
	keyMappings
	keyStream
)

// scanQuery decodes body in one pass when it is one JSON object whose
// keys are queryRequest's field names, spelled exactly and each at
// most once, with values of the field's JSON type: strings that hold
// no surrogate escape and no invalid UTF-8, integers without fraction
// or exponent of at most 18 digits, and true or false. It sets req's
// fields but Pattern, whose unescaped text it appends to text instead.
// What follows the object is ignored, as json.Decoder ignores it. ok
// is false for any other body, with req and text undefined.
func scanQuery(body []byte, req *queryRequest, text []byte) (_ []byte, ok bool) {
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return text, false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return text, true
	}
	seen := 0
	for {
		if i == len(body) || body[i] != '"' {
			return text, false
		}
		end := bytes.IndexByte(body[i+1:], '"')
		if end < 0 {
			return text, false
		}
		name := body[i+1 : i+1+end]
		i = skipSpace(body, i+end+2)
		if i == len(body) || body[i] != ':' {
			return text, false
		}
		i = skipSpace(body, i+1)
		var key int
		switch string(name) {
		case "pattern":
			key = keyPattern
			text, i, ok = scanString(body, i, text)
		case "semantics":
			key = keySemantics
			req.Semantics, i, ok = scanName(body, i, text)
		case "algorithm":
			key = keyAlgorithm
			req.Algorithm, i, ok = scanName(body, i, text)
		case "limit":
			key = keyLimit
			req.Limit, i, ok = scanInt(body, i)
		case "timeout_ms":
			key = keyTimeout
			req.TimeoutMS, i, ok = scanInt(body, i)
		case "mappings":
			key = keyMappings
			req.Mappings, i, ok = scanBool(body, i)
		case "stream":
			key = keyStream
			req.Stream, i, ok = scanBool(body, i)
		}
		if !ok || key == 0 || seen&key != 0 {
			return text, false
		}
		seen |= key
		i = skipSpace(body, i)
		if i == len(body) {
			return text, false
		}
		switch body[i] {
		case '}':
			return text, true
		case ',':
			i = skipSpace(body, i+1)
		default:
			return text, false
		}
	}
}

// scanName reads the JSON string at b[i] as a semantics or algorithm
// name, unescaping it into scratch's spare capacity. The names clients
// usually send come back as constants, without allocating.
func scanName(b []byte, i int, scratch []byte) (_ string, next int, ok bool) {
	s, next, ok := scanString(b, i, scratch[len(scratch):])
	for _, name := range [...]string{"iso", "induced", "hom", "auto", "ri", "rids", "ridssi", "ridssifc", "vf2", "lad"} {
		if string(s) == name {
			return name, next, ok
		}
	}
	return string(s), next, ok
}

func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanString appends the JSON string at b[i] to dst, unescaped, and
// returns the index past its closing quote. ok is false where
// encoding/json would refuse the string or decode it by more than
// unescaping: a surrogate \u escape (json pairs or replaces those),
// invalid UTF-8 (replaced), a raw control byte, an unknown escape, or
// no closing quote.
func scanString(b []byte, i int, dst []byte) (_ []byte, next int, ok bool) {
	if i == len(b) || b[i] != '"' {
		return dst, i, false
	}
	i++
	for i < len(b) {
		start := i
		for i < len(b) && b[i] >= ' ' && b[i] != '"' && b[i] != '\\' && b[i] < utf8.RuneSelf {
			i++
		}
		dst = append(dst, b[start:i]...)
		if i == len(b) {
			break
		}
		switch c := b[i]; {
		case c == '"':
			return dst, i + 1, true
		case c < ' ':
			return dst, i, false
		case c >= utf8.RuneSelf:
			r, size := utf8.DecodeRune(b[i:])
			if r == utf8.RuneError && size == 1 {
				return dst, i, false
			}
			dst = append(dst, b[i:i+size]...)
			i += size
			continue
		}
		if i+1 == len(b) {
			return dst, i, false
		}
		switch e := b[i+1]; e {
		case '"', '\\', '/':
			dst = append(dst, e)
		case 'b':
			dst = append(dst, '\b')
		case 'f':
			dst = append(dst, '\f')
		case 'n':
			dst = append(dst, '\n')
		case 'r':
			dst = append(dst, '\r')
		case 't':
			dst = append(dst, '\t')
		case 'u':
			if i+6 > len(b) {
				return dst, i, false
			}
			r, err := strconv.ParseUint(string(b[i+2:i+6]), 16, 16)
			if err != nil || utf16.IsSurrogate(rune(r)) {
				return dst, i, false
			}
			dst = utf8.AppendRune(dst, rune(r))
			i += 4
		default:
			return dst, i, false
		}
		i += 2
	}
	return dst, i, false
}

// scanInt reads the JSON integer at b[i]: a minus sign or none, then 0
// or up to 18 digits without a leading zero, which always fit an int64.
// Any other number (more digits, a fraction, an exponent) leaves a
// digit, '.', 'e' or 'E' next, where scanQuery wants a delimiter, so
// encoding/json decodes or refuses it.
func scanInt(b []byte, i int) (_ int64, next int, ok bool) {
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	start := i
	var v int64
	for i < len(b) && '0' <= b[i] && b[i] <= '9' && i-start < 18 {
		v = v*10 + int64(b[i]-'0')
		i++
	}
	if i == start || b[start] == '0' && i-start > 1 {
		return 0, i, false
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// scanBool reads the JSON literal true or false at b[i].
func scanBool(b []byte, i int) (_ bool, next int, ok bool) {
	switch {
	case bytes.HasPrefix(b[i:], []byte("true")):
		return true, i + 4, true
	case bytes.HasPrefix(b[i:], []byte("false")):
		return false, i + 5, true
	}
	return false, i, false
}

// appendKey appends `"key":` to the JSON object b is writing, after a
// comma unless it is the object's first member.
func appendKey(b []byte, key string) []byte {
	if b[len(b)-1] != '{' {
		b = append(b, ',')
	}
	b = append(b, '"')
	b = append(b, key...)
	return append(b, '"', ':')
}

// appendQueryResponse appends r as json.NewEncoder(w).Encode(r) writes
// it, trailing newline included.
func appendQueryResponse(b []byte, r *queryResponse) []byte {
	b = append(b, '{')
	b = strconv.AppendInt(appendKey(b, "matches"), r.Matches, 10)
	b = strconv.AppendUint(appendKey(b, "epoch"), r.Epoch, 10)
	b = strconv.AppendInt(appendKey(b, "states"), r.States, 10)
	if r.Truncated {
		b = append(appendKey(b, "truncated"), "true"...)
	}
	if r.Unsatisfiable {
		b = append(appendKey(b, "unsatisfiable"), "true"...)
	}
	b = strconv.AppendBool(appendKey(b, "cache_hit"), r.CacheHit)
	if r.Shared {
		b = append(appendKey(b, "shared"), "true"...)
	}
	if r.Large {
		b = append(appendKey(b, "large"), "true"...)
	}
	b = appendFloat(appendKey(b, "queue_wait_ms"), r.QueueWaitMS)
	b = appendFloat(appendKey(b, "preproc_ms"), r.PreprocMS)
	b = appendFloat(appendKey(b, "match_ms"), r.MatchMS)
	if r.Plan != "" {
		b = appendString(appendKey(b, "plan"), r.Plan)
	}
	if r.Class != "" {
		b = appendString(appendKey(b, "class"), r.Class)
	}
	if r.ClassEpoch != 0 {
		b = strconv.AppendUint(appendKey(b, "class_epoch"), r.ClassEpoch, 10)
	}
	if r.PredictedMS != 0 {
		b = appendFloat(appendKey(b, "predicted_ms"), r.PredictedMS)
	}
	if len(r.Mappings) > 0 {
		b = append(appendKey(b, "mappings"), '[')
		for i, m := range r.Mappings {
			if i > 0 {
				b = append(b, ',')
			}
			b = appendMapping(b, m)
		}
		b = append(b, ']')
	}
	return append(b, '}', '\n')
}

// appendStreamLine appends l as json.NewEncoder(w).Encode(l) writes it.
func appendStreamLine(b []byte, l *streamLine) []byte {
	b = append(b, '{')
	if len(l.Mapping) > 0 {
		b = appendMapping(appendKey(b, "mapping"), l.Mapping)
	}
	if l.Done {
		b = append(appendKey(b, "done"), "true"...)
	}
	if l.Matches != 0 {
		b = strconv.AppendInt(appendKey(b, "matches"), l.Matches, 10)
	}
	if l.Epoch != 0 {
		b = strconv.AppendUint(appendKey(b, "epoch"), l.Epoch, 10)
	}
	if l.Truncated {
		b = append(appendKey(b, "truncated"), "true"...)
	}
	if l.Error != "" {
		b = appendString(appendKey(b, "error"), l.Error)
	}
	return append(b, '}', '\n')
}

// appendErrorBody appends the error reply as json.NewEncoder(w).Encode
// writes map[string]string{"error": msg}.
func appendErrorBody(b []byte, msg string) []byte {
	b = appendString(append(b, `{"error":`...), msg)
	return append(b, '}', '\n')
}

// appendShedBody appends the 429 body of a cost-model shed as
// json.NewEncoder(w).Encode writes the map of its four fields (in key
// order, as encoding/json sorts map keys).
func appendShedBody(b []byte, msg string, ex *ExplosiveError) []byte {
	b = appendString(append(b, `{"error":`...), msg)
	b = appendFloat(append(b, `,"log_domain_product":`...), ex.LogDomainProduct)
	b = appendString(append(b, `,"plan":`...), ex.Plan)
	b = appendFloat(append(b, `,"predicted_ms":`...), durationMS(ex.Predicted))
	return append(b, '}', '\n')
}

// appendMapping appends m as encoding/json writes a []int32: null when
// nil.
func appendMapping(b []byte, m []int32) []byte {
	if m == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, v := range m {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']')
}

// appendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21 in magnitude, with a one-digit negative exponent unpadded. f is
// finite: every float a query reply carries is a time in milliseconds
// or a log of a product of domain sizes.
func appendFloat(b []byte, f float64) []byte {
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendString appends s quoted as encoding/json writes a string with
// HTML escaping on (an Encoder's default): <, > and & as \u escapes,
// control bytes escaped, invalid UTF-8 as \ufffd, and U+2028 and
// U+2029 escaped.
func appendString(b []byte, s string) []byte {
	const hex = "0123456789abcdef"
	b = append(b, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= ' ' && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hex[c>>4], hex[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hex[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	return append(b, '"')
}
