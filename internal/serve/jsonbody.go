package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"strconv"
	"sync"
	"unicode/utf16"
	"unicode/utf8"

	"repro/internal/record"
)

// The /match JSON body decoder. It answers a body as encoding/json
// decoding into a MatchRequest, followed by the request rules, would:
// the same status, the same pairs and deadline_ms. It does so in two
// passes over the body without reflection. The first validates the JSON
// and the field types and counts pairs and values, allocating nothing
// once its pooled cursor has grown; the second fills one exactly sized
// []record.Pair whose values share one []string backing array.
//
// Every value is copied into a string of its own, never sliced out of one
// string of the body: the text caches (textsim.Shared, lm's sharedText)
// keep value strings they have seen, and a substring would pin the whole
// body.
//
// A repeated key is decoded last-wins. encoding/json instead decodes a
// repeated array into the elements it already filled, so the objects of
// a repeated "pairs" keep fields the later array does not set; that
// quirk is not reproduced.

// maxJSONDepth is encoding/json's nesting limit: a body nesting more
// arrays and objects than this is malformed.
const maxJSONDepth = 10000

const (
	fieldUnknown = iota
	fieldLeft
	fieldRight
	fieldPairs
	fieldDeadline
	fieldLeftID
	fieldRightID
)

// fieldNames are the JSON names of MatchRequest's and PairJSON's fields.
var fieldNames = [...][]byte{
	fieldLeft:     []byte("left"),
	fieldRight:    []byte("right"),
	fieldPairs:    []byte("pairs"),
	fieldDeadline: []byte("deadline_ms"),
	fieldLeftID:   []byte("left_id"),
	fieldRightID:  []byte("right_id"),
}

// fieldOf names the field a key selects: equal to a field's name, or
// equal under case folding, as encoding/json matches keys.
func fieldOf(key []byte) int {
	for f, name := range fieldNames {
		if f != fieldUnknown && bytes.EqualFold(key, name) {
			return f
		}
	}
	return fieldUnknown
}

// span locates one string array (or string) of the body: the offset of
// its value, -1 when it is absent or null, and its element count.
type span struct{ at, n int }

var noSpan = span{at: -1}

// pairShape is one object of the pairs array, as the last occurrence of
// each of its keys left it.
type pairShape struct{ left, right, leftID, rightID span }

// reqShape is what the first pass learns of a request.
type reqShape struct {
	left, right span // the single-pair form
	pairs       span
	values      int // values in the pairs array's objects
	incomplete  int // first object of the pairs array lacking a side, or -1
	deadlineMs  int
}

// jsonCursor walks one JSON body.
type jsonCursor struct {
	b        []byte
	i        int
	depth    int
	tmp      []byte // unescaped text of the current string
	maxPairs int
	// shapes holds the first maxPairs objects of the last pairs array,
	// which are all of them when the batch is within bounds.
	shapes []pairShape
}

var cursorPool = sync.Pool{New: func() any { return new(jsonCursor) }}

// decodeMatchRequest decodes a /match JSON body into pairs and the
// client's deadline_ms, refusing a batch over maxPairs with ErrTooLarge
// once the body is known to be valid. Nothing it returns refers to body.
func decodeMatchRequest(body []byte, maxPairs int) ([]record.Pair, int, error) {
	c := cursorPool.Get().(*jsonCursor)
	defer func() {
		c.b = nil
		cursorPool.Put(c)
	}()
	c.b, c.i, c.depth, c.maxPairs = body, 0, 0, maxPairs
	sh, err := c.request()
	if err != nil {
		return nil, 0, err
	}
	single := sh.left.n > 0 || sh.right.n > 0
	switch {
	case single && sh.pairs.n > 0:
		return nil, 0, errors.New("set either left/right or pairs, not both")
	case single && (sh.left.n == 0 || sh.right.n == 0):
		return nil, 0, errors.New("both left and right are required")
	case single:
		vals := make([]string, sh.left.n+sh.right.n)
		return []record.Pair{{
			Left:  record.Record{Values: c.fillStrings(sh.left, vals)},
			Right: record.Record{Values: c.fillStrings(sh.right, vals[sh.left.n:])},
		}}, sh.deadlineMs, nil
	case sh.pairs.n == 0:
		return nil, 0, errNoPairs
	case sh.pairs.n > maxPairs:
		return nil, 0, ErrTooLarge
	case sh.incomplete >= 0:
		return nil, 0, fmt.Errorf("pair %d: both left and right are required", sh.incomplete)
	}
	return c.fillPairs(make([]record.Pair, sh.pairs.n), make([]string, sh.values)), sh.deadlineMs, nil
}

// request is the first pass: it validates the body's first JSON value
// and the types of the fields it sets. Bytes after that value are
// ignored, as json.Decoder ignores them.
func (c *jsonCursor) request() (reqShape, error) {
	sh := reqShape{left: noSpan, right: noSpan, pairs: noSpan, incomplete: -1}
	switch c.ws() {
	case 'n':
		return sh, c.literal("null") // a null request sets nothing
	case '{':
		return sh, c.object(func(field int) (err error) {
			switch field {
			case fieldLeft:
				sh.left, err = c.stringArray("left")
			case fieldRight:
				sh.right, err = c.stringArray("right")
			case fieldPairs:
				sh.pairs, sh.values, sh.incomplete, err = c.pairArray()
			case fieldDeadline:
				err = c.deadline(&sh.deadlineMs)
			default:
				err = c.skip()
			}
			return err
		})
	}
	return sh, c.typeError("request", "an object")
}

// pairArray validates the pairs array (or null), counts its objects and
// their values, and keeps the shapes of the first maxPairs objects.
func (c *jsonCursor) pairArray() (s span, values, incomplete int, err error) {
	switch c.ws() {
	case 'n':
		return noSpan, 0, -1, c.literal("null")
	case '[':
		s, incomplete = span{at: c.i}, -1
		c.shapes = c.shapes[:0]
		err = c.array(func() error {
			p, err := c.pair()
			values += p.left.n + p.right.n
			if incomplete < 0 && (p.left.n == 0 || p.right.n == 0) {
				incomplete = s.n
			}
			if s.n < c.maxPairs {
				c.shapes = append(c.shapes, p)
			}
			s.n++
			return err
		})
		return s, values, incomplete, err
	}
	return noSpan, 0, -1, c.typeError("pairs", "an array")
}

// pair validates one element of the pairs array: an object, or null
// (a pair with neither side).
func (c *jsonCursor) pair() (pairShape, error) {
	p := pairShape{noSpan, noSpan, noSpan, noSpan}
	switch c.ws() {
	case 'n':
		return p, c.literal("null")
	case '{':
		return p, c.object(func(field int) (err error) {
			switch field {
			case fieldLeft:
				p.left, err = c.stringArray("left")
			case fieldRight:
				p.right, err = c.stringArray("right")
			case fieldLeftID:
				p.leftID, err = c.stringOrNull("left_id")
			case fieldRightID:
				p.rightID, err = c.stringOrNull("right_id")
			default:
				err = c.skip()
			}
			return err
		})
	}
	return p, c.typeError("pair", "an object")
}

// stringArray validates an array of strings and nulls, or null.
func (c *jsonCursor) stringArray(field string) (span, error) {
	switch c.ws() {
	case 'n':
		return noSpan, c.literal("null")
	case '[':
		s := span{at: c.i}
		err := c.array(func() error {
			s.n++
			_, err := c.stringOrNull(field)
			return err
		})
		return s, err
	}
	return noSpan, c.typeError(field, "an array of strings")
}

// stringOrNull validates a string or null; a null has no span.
func (c *jsonCursor) stringOrNull(field string) (span, error) {
	switch c.ws() {
	case 'n':
		return noSpan, c.literal("null")
	case '"':
		s := span{at: c.i, n: 1}
		_, _, err := c.str()
		return s, err
	}
	return noSpan, c.typeError(field, "a string")
}

// deadline validates deadline_ms: a null leaves it as it is, and a
// number must be an integer that fits an int.
func (c *jsonCursor) deadline(ms *int) error {
	switch b := c.ws(); {
	case b == 'n':
		return c.literal("null")
	case b != '-' && (b < '0' || b > '9'):
		return c.typeError("deadline_ms", "an integer")
	}
	num, err := c.number()
	if err != nil {
		return err
	}
	v, err := strconv.ParseInt(string(num), 10, 0)
	if err != nil {
		return c.typeError("deadline_ms", "an integer that fits an int")
	}
	*ms = int(v)
	return nil
}

// skip validates one JSON value of any type.
func (c *jsonCursor) skip() error {
	switch b := c.ws(); {
	case b == '"':
		_, _, err := c.str()
		return err
	case b == '{':
		return c.object(func(int) error { return c.skip() })
	case b == '[':
		return c.array(c.skip)
	case b == 't':
		return c.literal("true")
	case b == 'f':
		return c.literal("false")
	case b == 'n':
		return c.literal("null")
	case b == '-' || '0' <= b && b <= '9':
		_, err := c.number()
		return err
	}
	return c.syntaxError("looking for the beginning of a value")
}

// fillPairs is the second pass over a validated batch: the last left
// and right arrays of each object fill vals in order.
func (c *jsonCursor) fillPairs(pairs []record.Pair, vals []string) []record.Pair {
	for k, p := range c.shapes {
		pr := &pairs[k]
		pr.Left.Values = c.fillStrings(p.left, vals)
		pr.Right.Values = c.fillStrings(p.right, vals[p.left.n:])
		vals = vals[p.left.n+p.right.n:]
		pr.Left.ID = c.stringAt(p.leftID)
		pr.Right.ID = c.stringAt(p.rightID)
	}
	return pairs
}

// fillStrings decodes the validated string array at s into the first
// s.n elements of dst and returns them, capped so that an append cannot
// reach a neighbour's values.
func (c *jsonCursor) fillStrings(s span, dst []string) []string {
	dst = dst[:s.n:s.n]
	c.i = s.at
	_ = c.open()
	for k := range dst {
		_, _ = c.elem(k == 0)
		if c.ws() == 'n' {
			c.i += len("null") // a null element is ""
			continue
		}
		dst[k] = c.stringAt(span{at: c.i})
	}
	_, _ = c.elem(false) // the closing bracket
	return dst
}

// stringAt decodes the validated string at s into a string of its own
// ("" for no span) and moves past it.
func (c *jsonCursor) stringAt(s span) string {
	if s.at < 0 {
		return ""
	}
	c.i = s.at
	raw, plain, _ := c.str()
	if plain {
		return string(raw)
	}
	return string(c.unquote(raw))
}

// ws skips whitespace and returns the next byte, or 0 at the end.
func (c *jsonCursor) ws() byte {
	for ; c.i < len(c.b); c.i++ {
		switch b := c.b[c.i]; b {
		case ' ', '\t', '\n', '\r':
		default:
			return b
		}
	}
	return 0
}

// open enters the array or object whose bracket is the next byte.
func (c *jsonCursor) open() error {
	c.i++
	if c.depth++; c.depth > maxJSONDepth {
		return c.syntaxError("exceeding the maximum nesting depth")
	}
	return nil
}

// object walks the object whose brace is the next byte, calling member
// with the field each key selects while the cursor is at its value, and
// leaves the cursor past the closing brace.
func (c *jsonCursor) object(member func(field int) error) error {
	if err := c.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		key, ok, err := c.member(first)
		if err != nil || !ok {
			return err
		}
		if err = member(fieldOf(key)); err != nil {
			return err
		}
	}
}

// array walks the array whose bracket is the next byte, calling elem
// while the cursor is at each element, and leaves the cursor past the
// closing bracket.
func (c *jsonCursor) array(elem func() error) error {
	if err := c.open(); err != nil {
		return err
	}
	for first := true; ; first = false {
		ok, err := c.elem(first)
		if err != nil || !ok {
			return err
		}
		if err = elem(); err != nil {
			return err
		}
	}
}

// elem moves to the next element of an array, or past its closing
// bracket (ok false).
func (c *jsonCursor) elem(first bool) (ok bool, err error) {
	switch c.ws() {
	case ']':
		c.i++
		c.depth--
		return false, nil
	case ',':
		if !first {
			c.i++
			return true, nil
		}
	default:
		if first {
			return true, nil
		}
	}
	return false, c.syntaxError("after an array element")
}

// member moves to the next member of an object and past its key and
// colon, returning the key, or past its closing brace (ok false). A key
// with escapes or non-ASCII bytes is returned unescaped, in c.tmp.
func (c *jsonCursor) member(first bool) (key []byte, ok bool, err error) {
	b := c.ws()
	if b == '}' {
		c.i++
		c.depth--
		return nil, false, nil
	}
	if !first {
		if b != ',' {
			return nil, false, c.syntaxError("after an object member")
		}
		c.i++
		b = c.ws()
	}
	if b != '"' {
		return nil, false, c.syntaxError("looking for the beginning of an object key")
	}
	key, plain, err := c.str()
	if err != nil {
		return nil, false, err
	}
	if !plain {
		key = c.unquote(key)
	}
	if c.ws() != ':' {
		return nil, false, c.syntaxError("after an object key")
	}
	c.i++
	return key, true, nil
}

// literal moves past word, which must come next.
func (c *jsonCursor) literal(word string) error {
	if len(c.b)-c.i < len(word) || string(c.b[c.i:c.i+len(word)]) != word {
		return c.syntaxError("in a literal")
	}
	c.i += len(word)
	return nil
}

// number moves past a JSON number and returns its text.
func (c *jsonCursor) number() ([]byte, error) {
	start := c.i
	if c.peek() == '-' {
		c.i++
	}
	switch b := c.peek(); {
	case b == '0':
		c.i++
	case '1' <= b && b <= '9':
		c.digits()
	default:
		return nil, c.syntaxError("in a numeric literal")
	}
	if c.peek() == '.' {
		c.i++
		if !c.digits() {
			return nil, c.syntaxError("after a decimal point")
		}
	}
	if b := c.peek(); b == 'e' || b == 'E' {
		c.i++
		if b := c.peek(); b == '+' || b == '-' {
			c.i++
		}
		if !c.digits() {
			return nil, c.syntaxError("in an exponent")
		}
	}
	return c.b[start:c.i], nil
}

// digits moves past a run of decimal digits and reports whether there
// was one.
func (c *jsonCursor) digits() bool {
	start := c.i
	for b := c.peek(); '0' <= b && b <= '9'; b = c.peek() {
		c.i++
	}
	return c.i > start
}

func (c *jsonCursor) peek() byte {
	if c.i < len(c.b) {
		return c.b[c.i]
	}
	return 0
}

// str moves past the string that starts at the cursor and returns its
// raw text between the quotes. plain reports that the text has no
// escapes and no byte past ASCII, so that it is its own value.
func (c *jsonCursor) str() (raw []byte, plain bool, err error) {
	b, start := c.b, c.i+1
	plain = true
	for i := start; ; {
		for i+8 <= len(b) && !special(binary.LittleEndian.Uint64(b[i:])) {
			i += 8
		}
		if i == len(b) {
			c.i = i
			return nil, false, c.syntaxError("in a string (unexpected end)")
		}
		switch ch := b[i]; {
		case ch == '"':
			c.i = i + 1
			return b[start:i], plain, nil
		case ch == '\\':
			plain = false
			if i+1 < len(b) {
				switch b[i+1] {
				case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
					i += 2
					continue
				case 'u':
					if i+5 < len(b) && hex4(b[i+2:i+6]) >= 0 {
						i += 6
						continue
					}
				}
			}
			c.i = i
			return nil, false, c.syntaxError("in a string escape")
		case ch < ' ':
			c.i = i
			return nil, false, c.syntaxError("in a string (control character)")
		case ch >= utf8.RuneSelf:
			plain = false
		}
		i++
	}
}

// special reports whether any of the eight bytes in w ends a string's
// plain run: a quote, a backslash, a control byte or a byte past ASCII.
// It never misses one; after the first, it may report others that are
// not.
func special(w uint64) bool {
	const ones, highs = 0x0101010101010101, 0x8080808080808080
	quote, backslash := w^(ones*'"'), w^(ones*'\\')
	return ((w-ones*' ')|w|(quote-ones)&^quote|(backslash-ones)&^backslash)&highs != 0
}

// unquote decodes the raw text of a validated string into c.tmp as
// encoding/json does: every escape is decoded, a \u surrogate pair
// becomes its rune, and each lone surrogate and each byte of invalid
// UTF-8 becomes U+FFFD.
func (c *jsonCursor) unquote(raw []byte) []byte {
	out := c.tmp[:0]
	for i := 0; i < len(raw); {
		switch b := raw[i]; {
		case b == '\\' && raw[i+1] == 'u':
			r := hex4(raw[i+2 : i+6])
			i += 6
			if utf16.IsSurrogate(r) {
				lo := rune(-1)
				if i+6 <= len(raw) && raw[i] == '\\' && raw[i+1] == 'u' {
					lo = hex4(raw[i+2 : i+6])
				}
				if r = utf16.DecodeRune(r, lo); r != utf8.RuneError {
					i += 6
				}
			}
			out = utf8.AppendRune(out, r)
		case b == '\\':
			out = append(out, unescape[raw[i+1]])
			i += 2
		case b < utf8.RuneSelf:
			out = append(out, b)
			i++
		default:
			r, n := utf8.DecodeRune(raw[i:])
			if r == utf8.RuneError && n == 1 {
				out = utf8.AppendRune(out, r)
			} else {
				out = append(out, raw[i:i+n]...)
			}
			i += n
		}
	}
	c.tmp = out
	return out
}

// unescape maps the byte after a backslash to the byte it stands for.
var unescape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// hex4 is the value of four hex digits, or -1.
func hex4(b []byte) rune {
	var r rune
	for _, d := range b[:4] {
		switch {
		case '0' <= d && d <= '9':
			d -= '0'
		case 'a' <= d && d <= 'f':
			d -= 'a' - 10
		case 'A' <= d && d <= 'F':
			d -= 'A' - 10
		default:
			return -1
		}
		r = r<<4 | rune(d)
	}
	return r
}

func (c *jsonCursor) syntaxError(where string) error {
	return fmt.Errorf("bad request body: invalid JSON %s at offset %d", where, c.i)
}

func (c *jsonCursor) typeError(field, want string) error {
	return fmt.Errorf("bad request body: %s must be %s (offset %d)", field, want, c.i)
}
