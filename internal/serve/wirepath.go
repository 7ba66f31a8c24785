package serve

import (
	"context"
	"errors"
	"io"
	"net/http"
	"time"

	"repro/internal/snap"
	"repro/internal/wire"
)

// ServeWire answers one binary-protocol request: body is a complete
// request frame, dst receives the response frame (reusing its capacity),
// and the returned status is the HTTP status the frame travels under.
// Errors are answered as TErr frames with the same code, so binary
// clients never need a JSON parser.
//
// This is the frame codec in front of the request core, and the zero-copy
// hot path: pair values are consumed as views into body (no string
// materialisation), cache keys are built in pooled scratch, and on a
// fully cached request nothing escapes to the heap. Only cache misses
// materialise records, because the scoring queue outlives the frame
// buffer.
func (s *Server) ServeWire(ctx context.Context, body, dst []byte) (int, []byte) {
	return serveFrame(body, dst, func(sc *scratch) (*MatchResult, error) {
		return serveCore(s, ctx, sc, viewPairs(sc.req.Pairs), "wire", sc.req.DeadlineMs)
	})
}

// ServeFrame is the frame codec for a service that answers decoded views
// without a cache of its own (the fleet front): the checks, reply encoding
// and TErr writer of ServeWire, with answer deciding the request. The
// request and its views are valid only until answer returns, and the
// result answer returns is encoded before ServeFrame returns, so it may
// live in the caller's pooled scratch.
func ServeFrame(body, dst []byte, answer func(*wire.Request) (*MatchResult, error)) (int, []byte) {
	return serveFrame(body, dst, func(sc *scratch) (*MatchResult, error) {
		return answer(&sc.req)
	})
}

var (
	errNotRequest = errors.New("request frame required")
	errNoPairs    = errors.New("no pairs in request")
)

// serveFrame is the frame codec: it decodes body as one non-empty request
// frame into pooled scratch, has answer decide it, and encodes the result
// — or the rejection, as a TErr frame under its HTTP status — into dst.
func serveFrame(body, dst []byte, answer func(*scratch) (*MatchResult, error)) (int, []byte) {
	sc := scratchPool.Get().(*scratch)
	defer scratchPool.Put(sc)
	typ, payload, err := wire.ParseFrame(body)
	if err == nil && typ != wire.TReq {
		err = errNotRequest
	}
	if err == nil {
		err = sc.req.Decode(payload)
	}
	if err == nil && len(sc.req.Pairs) == 0 {
		err = errNoPairs
	}
	if err != nil {
		return wireError(dst, &sc.enc, rejectStatus(err), err.Error())
	}
	start := time.Now()
	res, err := answer(sc)
	if err != nil {
		return wireError(dst, &sc.enc, StatusFor(err), err.Error())
	}
	sc.enc.Reset()
	wire.AppendResponsePayload(&sc.enc, res.Preds, res.Cached, res.CostUSD, res.Tokens, time.Since(start).Microseconds())
	return http.StatusOK, wire.AppendFrame(dst, wire.TResp, sc.enc.Bytes())
}

// wireError encodes a TErr frame into dst via e and returns it alongside
// its HTTP status: the one wire error writer.
func wireError(dst []byte, e *snap.Enc, status int, msg string) (int, []byte) {
	e.Reset()
	wire.AppendErrorPayload(e, status, msg)
	return status, wire.AppendFrame(dst, wire.TErr, e.Bytes())
}

// maxBody is the largest /match body either codec reads: the largest
// legal frame.
const maxBody = wire.MaxPayload + 16

// readAllInto reads r into dst (reusing its capacity), refusing bodies
// beyond maxBody so a hostile client cannot balloon the pooled buffers.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if len(dst) > maxBody {
			return dst, wire.ErrOversize
		}
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}
