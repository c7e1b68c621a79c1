package server

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/roadnet"
	"repro/internal/traj"
)

// The POST /v1/trajectories body is decoded by a schema-specific,
// one-pass scanner instead of encoding/json's reflective decoder:
//
//	{"trajectories":[{"trid":N,"points":[{"sid":N,"x":F,"y":F,"t":F}, ...]}, ...]}
//
// It scans straight into []traj.Trajectory, with no wire-DTO copy in
// between, and accepts and rejects exactly what
// json.NewDecoder(body).Decode(&IngestRequest{}) does, producing
// bit-identical values (FuzzIngestDecode pins this against
// encoding/json itself):
//
//   - keys match case-insensitively (Unicode simple folding) after
//     unquoting escapes; unknown members are validated and skipped;
//   - null leaves a number or an object as it was and empties an array;
//   - a duplicate key decodes again into the same value, so the last
//     one wins and a repeated array reuses (and merges into) the
//     elements an earlier one left, as encoding/json's slice decode
//     does;
//   - trid and sid are int32: fractions, exponents and out-of-range
//     values are rejected; x, y and t go through strconv.ParseFloat, so
//     an out-of-range literal such as 1e400 is rejected;
//   - the whole first value must be valid JSON (string escapes, control
//     characters, number grammar, nesting at most maxNestingDepth);
//     bytes after it are ignored.
//
// The one deliberate difference: the scan stops with errBatchTooLarge
// as soon as a trajectories array opens element maxBatch+1, without
// looking at the rest of the body.

// maxNestingDepth is encoding/json's nesting limit: input nested deeper
// is a syntax error there, so it is one here too.
const maxNestingDepth = 10000

// maxPresize caps how far readBody trusts a declared Content-Length:
// the header is client-controlled, so beyond this the buffer grows only
// as bytes actually arrive.
const maxPresize = 16 << 20

// errBatchTooLarge reports a body with more trajectories than the
// session's MaxBatch; the handler answers it with 413.
var errBatchTooLarge = errors.New("batch exceeds the trajectory limit")

var errUnexpectedEnd = errors.New("unexpected end of JSON input")

// readBody reads a request body into one buffer, sized from the
// declared Content-Length (up to maxPresize) so a typical batch is read
// without regrowth.
func readBody(body io.Reader, declared int64) ([]byte, error) {
	size := int64(512)
	if declared > 0 {
		// One spare byte lets the final Read report EOF without growing
		// the buffer.
		size = min(declared, maxPresize) + 1
	}
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// decodeIngest decodes a POST /v1/trajectories body into its trajectory
// ids and trajectories, in request order, and counts their points. At
// most maxBatch trajectories are decoded; a body with more fails with
// errBatchTooLarge.
func decodeIngest(body []byte, maxBatch int) (ids []traj.ID, trajs []traj.Trajectory, points int, err error) {
	d := ingestDecoder{data: body, maxBatch: maxBatch}
	if err := d.request(); err != nil {
		return nil, nil, 0, err
	}
	ids = make([]traj.ID, len(d.trajs))
	for i, tr := range d.trajs {
		ids[i] = tr.ID
		points += len(tr.Points)
	}
	return ids, d.trajs, points, nil
}

// ingestDecoder is the state of one decodeIngest scan.
type ingestDecoder struct {
	data     []byte
	off      int
	depth    int // open arrays and objects around off
	maxBatch int
	trajs    []traj.Trajectory
	// skipStack is skip's container stack, reused across calls.
	skipStack []bool
	// keyBuf holds an unquoted escaped key; a longer key cannot fold to
	// any field name.
	keyBuf [64]byte
}

var (
	requestFields    = []string{"trajectories"}
	trajectoryFields = []string{"trid", "points"}
	pointFields      = []string{"sid", "x", "y", "t"}
)

func (d *ingestDecoder) request() error {
	d.space()
	return d.object("request object", requestFields, func(int) error {
		return decodeArray(d, "trajectories array", &d.trajs, d.maxBatch, d.trajectory)
	})
}

func (d *ingestDecoder) trajectory(tr *traj.Trajectory) error {
	return d.object("trajectory object", trajectoryFields, func(f int) error {
		if f == 0 {
			return d.int32("trid", (*int32)(&tr.ID))
		}
		return decodeArray(d, "points array", &tr.Points, -1, d.point)
	})
}

func (d *ingestDecoder) point(p *traj.Location) error {
	// Every wire sample is an original one, never a junction point; a
	// slot exposed from spare capacity still holds the zero Junction.
	p.Junction = roadnet.NoNode
	return d.object("point object", pointFields, func(f int) error {
		switch f {
		case 0:
			return d.int32("sid", (*int32)(&p.Seg))
		case 1:
			return d.float("x", &p.Pt.X)
		case 2:
			return d.float("y", &p.Pt.Y)
		}
		return d.float("t", &p.Time)
	})
}

// object decodes an object into a struct target: member gets the index
// in names of every key that matches one, other members are skipped, and
// null leaves the target as it was.
func (d *ingestDecoder) object(what string, names []string, member func(field int) error) error {
	switch d.peek() {
	case 'n':
		return d.literal("null")
	case '{':
	default:
		return d.mismatch(what)
	}
	if err := d.open(); err != nil {
		return err
	}
	for i := 0; ; i++ {
		more, err := d.more('}', i, "object key:value pair")
		if err != nil || !more {
			return err
		}
		f, err := d.field(names)
		if err != nil {
			return err
		}
		if f < 0 {
			err = d.skip()
		} else {
			err = member(f)
		}
		if err != nil {
			return err
		}
	}
}

// decodeArray decodes an array into *s the way encoding/json's slice
// decode does: element i decodes into slot i, and within capacity that
// slot keeps whatever an earlier, longer array under a duplicate key
// left there, so the decode merges into it. The slice then ends at the
// array's length, keeping its backing array unless the array is empty;
// null empties it too. An array opening element max+1 (max >= 0) fails
// with errBatchTooLarge.
func decodeArray[T any](d *ingestDecoder, what string, s *[]T, max int, elem func(*T) error) error {
	switch d.peek() {
	case 'n':
		*s = nil
		return d.literal("null")
	case '[':
	default:
		return d.mismatch(what)
	}
	if err := d.open(); err != nil {
		return err
	}
	n := 0
	for ; ; n++ {
		more, err := d.more(']', n, "array element")
		if err != nil {
			return err
		}
		if !more {
			break
		}
		if n == max {
			return errBatchTooLarge
		}
		if n < cap(*s) {
			*s = (*s)[:n+1]
		} else {
			var zero T
			*s = append(*s, zero)
		}
		if err := elem(&(*s)[n]); err != nil {
			return err
		}
	}
	if n == 0 {
		*s = nil
	} else {
		*s = (*s)[:n]
	}
	return nil
}

// int32 decodes an integer member into *v; null leaves *v unchanged.
func (d *ingestDecoder) int32(name string, v *int32) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	start := d.off
	if err := d.number(name); err != nil {
		return err
	}
	// ParseInt rejects fractions and exponents, like encoding/json's
	// integer decode.
	lit := d.data[start:d.off]
	n, err := strconv.ParseInt(string(lit), 10, 32)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into %s (int32) at offset %d", lit, name, start)
	}
	*v = int32(n)
	return nil
}

// float decodes a number member into *v; null leaves *v unchanged.
func (d *ingestDecoder) float(name string, v *float64) error {
	if d.peek() == 'n' {
		return d.literal("null")
	}
	start := d.off
	if err := d.number(name); err != nil {
		return err
	}
	lit := d.data[start:d.off]
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		return fmt.Errorf("cannot decode number %s into %s (float64) at offset %d", lit, name, start)
	}
	*v = f
	return nil
}

// number consumes a JSON number literal. A value that is not a number
// at all is a type mismatch for the named member.
func (d *ingestDecoder) number(name string) error {
	data, i := d.data, d.off
	if c := d.peek(); c != '-' && !isDigit(c) {
		return d.mismatch("number for " + name)
	}
	if data[i] == '-' {
		i++
	}
	switch {
	case i < len(data) && data[i] == '0':
		i++
	case i < len(data) && isDigit(data[i]):
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	default:
		return d.syntaxAt(i, "in numeric literal")
	}
	if i < len(data) && data[i] == '.' {
		i++
		if i >= len(data) || !isDigit(data[i]) {
			return d.syntaxAt(i, "after decimal point in numeric literal")
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	if i < len(data) && (data[i] == 'e' || data[i] == 'E') {
		i++
		if i < len(data) && (data[i] == '+' || data[i] == '-') {
			i++
		}
		if i >= len(data) || !isDigit(data[i]) {
			return d.syntaxAt(i, "in exponent of numeric literal")
		}
		for i < len(data) && isDigit(data[i]) {
			i++
		}
	}
	d.off = i
	return nil
}

// field consumes an object key and its ':' and returns the key's index
// in names, or -1 for an unknown member. Matching is encoding/json's:
// an exact match, else equality under Unicode simple case folding.
func (d *ingestDecoder) field(names []string) (int, error) {
	raw, escaped, err := d.key()
	if err != nil {
		return -1, err
	}
	key := raw
	if escaped {
		key = d.unquoteKey(raw)
	}
	for i, name := range names {
		if string(key) == name {
			return i, nil
		}
	}
	for i, name := range names {
		if strings.EqualFold(string(key), name) {
			return i, nil
		}
	}
	return -1, nil
}

// key consumes an object key string and the ':' after it, returning the
// key's raw bytes between the quotes.
func (d *ingestDecoder) key() (raw []byte, escaped bool, err error) {
	if d.peek() != '"' {
		return nil, false, d.syntax("looking for beginning of object key string")
	}
	if raw, escaped, err = d.str(); err != nil {
		return nil, false, err
	}
	d.space()
	if d.peek() != ':' {
		return nil, false, d.syntax("after object key")
	}
	d.off++
	d.space()
	return raw, escaped, nil
}

// unquoteKey resolves the escapes of a key already validated by str.
// A key that cannot equal any field name under folding comes back nil:
// one longer than keyBuf, or one with a \u escape naming a UTF-16
// surrogate (encoding/json decodes those to a supplementary rune or
// U+FFFD, neither of which folds to ASCII).
func (d *ingestDecoder) unquoteKey(raw []byte) []byte {
	out := d.keyBuf[:0]
	for i := 0; i < len(raw); {
		if len(out)+utf8.UTFMax > cap(out) {
			return nil
		}
		c := raw[i]
		if c != '\\' {
			out = append(out, c)
			i++
			continue
		}
		switch c = raw[i+1]; c {
		case 'u':
			r := rune(0)
			for _, h := range raw[i+2 : i+6] {
				r = r<<4 | rune(unhex(h))
			}
			if utf16.IsSurrogate(r) {
				return nil
			}
			out = utf8.AppendRune(out, r)
			i += 6
			continue
		case 'b':
			c = '\b'
		case 'f':
			c = '\f'
		case 'n':
			c = '\n'
		case 'r':
			c = '\r'
		case 't':
			c = '\t'
		}
		out = append(out, c) // '"', '\\' and '/' stand for themselves
		i += 2
	}
	return out
}

// str consumes a string literal (d.off at its opening quote) and
// returns the raw bytes between the quotes and whether any escape
// occurs in them.
func (d *ingestDecoder) str() (raw []byte, escaped bool, err error) {
	data := d.data
	start := d.off + 1
	i := start
	for {
		for i < len(data) && data[i] != '"' && data[i] != '\\' && data[i] >= 0x20 {
			i++
		}
		if i >= len(data) {
			return nil, false, errUnexpectedEnd
		}
		switch data[i] {
		case '"':
			d.off = i + 1
			return data[start:i], escaped, nil
		case '\\':
			escaped = true
			i++
			if i >= len(data) {
				return nil, false, errUnexpectedEnd
			}
			switch data[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				i++
			case 'u':
				i++
				for end := i + 4; i < end; i++ {
					if i >= len(data) {
						return nil, false, errUnexpectedEnd
					}
					if unhex(data[i]) < 0 {
						return nil, false, d.syntaxAt(i, "in \\u hexadecimal character escape")
					}
				}
			default:
				return nil, false, d.syntaxAt(i, "in string escape code")
			}
		default:
			return nil, false, d.syntaxAt(i, "in string literal")
		}
	}
}

// skip consumes one value of any shape — an unknown member's —
// validating it as strictly as encoding/json does. Nested containers
// are walked with an explicit stack (true for an object), never by
// recursion, and nesting past maxNestingDepth fails.
func (d *ingestDecoder) skip() error {
	d.skipStack = d.skipStack[:0]
	for {
		// A value starts at d.off.
		switch c := d.peek(); c {
		case '{', '[':
			if err := d.open(); err != nil {
				return err
			}
			d.space()
			obj := c == '{'
			if closer := closerOf(obj); d.peek() == closer {
				d.off++
				d.depth--
				break
			}
			d.skipStack = append(d.skipStack, obj)
			if obj {
				if _, _, err := d.key(); err != nil {
					return err
				}
			}
			continue
		case '"':
			if _, _, err := d.str(); err != nil {
				return err
			}
		case 't':
			if err := d.literal("true"); err != nil {
				return err
			}
		case 'f':
			if err := d.literal("false"); err != nil {
				return err
			}
		case 'n':
			if err := d.literal("null"); err != nil {
				return err
			}
		default:
			if c != '-' && !isDigit(c) {
				return d.syntax("looking for beginning of value")
			}
			if err := d.number("value"); err != nil {
				return err
			}
		}
		if done, err := d.skipClose(); done || err != nil {
			return err
		}
	}
}

// skipClose runs after skip completes a value: it closes every
// container on the stack that the value completes, then steps past the
// ',' (and, inside an object, the next key) to the next value. done
// reports that the skipped value itself is complete.
func (d *ingestDecoder) skipClose() (done bool, err error) {
	for len(d.skipStack) > 0 {
		obj := d.skipStack[len(d.skipStack)-1]
		d.space()
		switch d.peek() {
		case closerOf(obj):
			d.off++
			d.depth--
			d.skipStack = d.skipStack[:len(d.skipStack)-1]
		case ',':
			d.off++
			d.space()
			if obj {
				_, _, err = d.key()
			}
			return false, err
		default:
			if obj {
				return false, d.syntax("after object key:value pair")
			}
			return false, d.syntax("after array element")
		}
	}
	return true, nil
}

func closerOf(obj bool) byte {
	if obj {
		return '}'
	}
	return ']'
}

// open consumes the '{' or '[' at d.off.
func (d *ingestDecoder) open() error {
	if d.depth == maxNestingDepth {
		return d.syntax("exceeded max depth")
	}
	d.off++
	d.depth++
	return nil
}

// more steps to member i of the container open at d.off's depth,
// reporting false once its closer is consumed. Member 0 may be the
// closer (an empty container); later members follow a ','.
func (d *ingestDecoder) more(closer byte, i int, after string) (bool, error) {
	d.space()
	switch c := d.peek(); {
	case c == closer:
		d.off++
		d.depth--
		return false, nil
	case i == 0:
		return true, nil
	case c != ',':
		return false, d.syntax("after " + after)
	}
	d.off++
	d.space()
	return true, nil
}

// literal consumes the literal lit (true, false or null).
func (d *ingestDecoder) literal(lit string) error {
	for i := 0; i < len(lit); i++ {
		if d.peek() != lit[i] {
			return d.syntax("in literal " + lit)
		}
		d.off++
	}
	return nil
}

func (d *ingestDecoder) space() {
	for d.off < len(d.data) {
		switch d.data[d.off] {
		case ' ', '\t', '\n', '\r':
			d.off++
		default:
			return
		}
	}
}

// peek returns the byte at d.off, or 0 at the end of the body.
func (d *ingestDecoder) peek() byte {
	if d.off < len(d.data) {
		return d.data[d.off]
	}
	return 0
}

func (d *ingestDecoder) syntax(context string) error { return d.syntaxAt(d.off, context) }

func (d *ingestDecoder) syntaxAt(off int, context string) error {
	if off >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("invalid character %q %s at offset %d", d.data[off], context, off)
}

// mismatch reports a well-formed value of the wrong kind where want was
// expected (or a malformed one; either way the body is rejected).
func (d *ingestDecoder) mismatch(want string) error {
	if d.off >= len(d.data) {
		return errUnexpectedEnd
	}
	return fmt.Errorf("cannot decode value starting %q at offset %d: want %s", d.data[d.off], d.off, want)
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// unhex returns the value of hexadecimal digit c, or -1.
func unhex(c byte) int {
	switch {
	case '0' <= c && c <= '9':
		return int(c - '0')
	case 'a' <= c && c <= 'f':
		return int(c-'a') + 10
	case 'A' <= c && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
