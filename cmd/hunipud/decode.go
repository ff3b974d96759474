package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"strconv"
)

// firstRead bounds the buffer readBody allocates before any byte has
// arrived, however long the body claims to be.
const firstRead = 1 << 20

// readBody reads a request body whose declared length is n (-1 when
// unknown) into one buffer, with one spare byte to read the end into. A
// body of n < firstRead bytes is read into one buffer of n+1 bytes. A
// longer one starts from n+1 halved until it is at most firstRead, and
// doubles to exactly n+1, so it costs less than twice its length. A
// client that declares more than it sends costs at most firstRead, or
// four times what it sends.
func readBody(r io.Reader, n int64) ([]byte, error) {
	size := int64(512)
	if n >= 0 {
		for size = n + 1; size > firstRead; {
			size = (size + 1) / 2
		}
	}
	b := make([]byte, 0, size)
	for {
		if len(b) == cap(b) {
			size = 2 * int64(cap(b))
			if n >= int64(cap(b)) {
				size = min(size, n+1)
			}
			b = append(make([]byte, 0, size), b...)
		}
		m, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+m]
		if errors.Is(err, io.EOF) {
			return b, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeSolveRequest decodes a POST /solve body. The body is read in
// one pass if it is exactly the object the daemon expects, with plain
// ASCII keys, each at most once. Any other body goes to json.Unmarshal,
// which is the reference: the result, or the error, is always the one
// json.Unmarshal gives.
func decodeSolveRequest(body []byte) (solveRequest, error) {
	if req, ok := parseSolveRequest(body); ok {
		return req, nil
	}
	var req solveRequest
	err := json.Unmarshal(body, &req)
	return req, err
}

// parseSolveRequest is decodeSolveRequest's one pass. It reports false
// for every body it does not recognise exactly: null, escapes, non-ASCII
// strings, unknown or repeated keys and every error among them.
func parseSolveRequest(body []byte) (solveRequest, bool) {
	var req solveRequest
	s := scanner{b: body}
	if !s.eat('{') {
		return req, false
	}
	if !s.eat('}') {
		var seen uint8 // one bit per field read
		for more := true; more; more = s.eat(',') {
			s.space()
			key, ok := s.str()
			if !ok || !s.eat(':') {
				return req, false
			}
			s.space()
			var field uint8
			switch string(key) {
			case "costs":
				req.Costs, ok = s.costs()
				field = 1
			case "maximize":
				req.Maximize, ok = s.boolean()
				field = 2
			case "deadline_ms":
				req.DeadlineMS, ok = s.integer()
				field = 4
			case "quality":
				req.Quality, ok = s.text()
				field = 8
			case "key":
				req.Key, ok = s.text()
				field = 16
			default:
				return req, false
			}
			if !ok || seen&field != 0 {
				return req, false
			}
			seen |= field
		}
		if !s.eat('}') {
			return req, false
		}
	}
	s.space()
	return req, s.i == len(s.b)
}

// scanner reads JSON from b at i.
type scanner struct {
	b []byte
	i int
}

func (s *scanner) space() {
	i := s.i
	for i < len(s.b) && isSpace(s.b[i]) {
		i++
	}
	s.i = i
}

func isSpace(c byte) bool { return c == ' ' || c == '\t' || c == '\n' || c == '\r' }

// eat skips whitespace and consumes c if it comes next.
func (s *scanner) eat(c byte) bool {
	s.space()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// str consumes a string of printable ASCII without escapes and returns
// its contents; any other string is for json.Unmarshal.
func (s *scanner) str() ([]byte, bool) {
	if s.i >= len(s.b) || s.b[s.i] != '"' {
		return nil, false
	}
	for j := s.i + 1; j < len(s.b); j++ {
		switch c := s.b[j]; {
		case c == '"':
			v := s.b[s.i+1 : j]
			s.i = j + 1
			return v, true
		case c == '\\' || c < 0x20 || c >= 0x80:
			return nil, false
		}
	}
	return nil, false
}

func (s *scanner) text() (string, bool) {
	v, ok := s.str()
	return string(v), ok
}

func (s *scanner) boolean() (bool, bool) {
	switch rest := s.b[s.i:]; {
	case bytes.HasPrefix(rest, []byte("true")):
		s.i += len("true")
		return true, true
	case bytes.HasPrefix(rest, []byte("false")):
		s.i += len("false")
		return false, true
	}
	return false, false
}

// integer consumes a JSON integer of at most 18 digits without a sign,
// which int64 holds whatever they are; any other is for json.Unmarshal.
func (s *scanner) integer() (int64, bool) {
	u, end := digits(s.b, s.i)
	n := end - s.i
	ok := n > 0 && n <= 18 && (n == 1 || s.b[s.i] != '0')
	s.i = end
	return int64(u), ok
}

// digits reads the run of decimal digits at b[i:] and returns its value,
// which is exact for up to 19 digits, and the index past it.
func digits(b []byte, i int) (uint64, int) {
	var u uint64
	for ; i < len(b); i++ {
		d := b[i] - '0'
		if d > 9 {
			break
		}
		u = u*10 + uint64(d)
	}
	return u, i
}

// number consumes one JSON number and converts it in the same pass. An
// integer of at most 15 digits is below 2^53, so integer arithmetic
// converts it exactly; every other number is checked against the JSON
// grammar here and converted by strconv.ParseFloat, as in encoding/json.
// A number out of float64's range is for json.Unmarshal to refuse.
func (s *scanner) number() (float64, bool) {
	b, start, i := s.b, s.i, s.i
	neg := i < len(b) && b[i] == '-'
	if neg {
		i++
	}
	u, end := digits(b, i)
	if end == i || end-i > 1 && b[i] == '0' {
		return 0, false
	}
	exact := end-i <= 15
	i = end
	if i < len(b) && b[i] == '.' {
		if _, end = digits(b, i+1); end == i+1 {
			return 0, false
		}
		i, exact = end, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if _, end = digits(b, i); end == i {
			return 0, false
		}
		i, exact = end, false
	}
	s.i = i
	if exact {
		v := float64(u)
		if neg {
			v = -v // -0 stays negative zero, as strconv reads it
		}
		return v, true
	}
	v, err := strconv.ParseFloat(string(b[start:i]), 64)
	return v, err == nil
}

// costs consumes an array of arrays of numbers. Its rows are slices of
// one backing array, sized once by costsBound.
func (s *scanner) costs() ([][]float64, bool) {
	if !s.eat('[') {
		return nil, false
	}
	if s.eat(']') {
		return [][]float64{}, true
	}
	nrows, nvals := costsBound(s.b[s.i:])
	rows := make([][]float64, 0, nrows)
	vals := make([]float64, 0, nvals)
	for more := true; more; more = s.eat(',') {
		if !s.eat('[') {
			return nil, false
		}
		start := len(vals)
		if !s.eat(']') {
			for more := true; more; more = s.eat(',') {
				s.space()
				v, ok := s.number()
				if !ok {
					return nil, false
				}
				vals = append(vals, v)
			}
			if !s.eat(']') {
				return nil, false
			}
		}
		rows = append(rows, vals[start:len(vals):len(vals)])
	}
	return rows, s.eat(']')
}

// costsBound bounds from above the rows and entries of the array of
// arrays of numbers that b begins, b starting just past its '['. Such an
// array ends at the first ']' that follows another across whitespace
// only; each ']' before that ends a row, and each entry but the last is
// followed by a comma and takes at least one byte. Only the array is
// counted, so nothing later in the body can inflate the bound; if there
// is no such end, or a string before it, the parse fails and the bound
// is 0.
func costsBound(b []byte) (rows, entries int) {
	for i := 0; ; rows++ {
		j := bytes.IndexByte(b[i:], ']')
		if j < 0 {
			return 0, 0
		}
		i += j + 1
		for i < len(b) && isSpace(b[i]) {
			i++
		}
		if i < len(b) && b[i] == ']' {
			b = b[:i]
			if bytes.IndexByte(b, '"') >= 0 {
				return 0, 0
			}
			return rows + 1, min(bytes.Count(b, []byte{','})+1, (len(b)+1)/2)
		}
	}
}
