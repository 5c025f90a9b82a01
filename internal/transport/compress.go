package transport

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"sync"
)

// Compression layer (wire v5+): the event section — the bulk of a round
// message — may be compressed before framing. The codec negotiates per
// frame: the flagCompress bit plus a one-byte compressor id say how the
// section bytes were produced, so a decoder needs only the matching
// Compressor registered, not the same configuration. Control headers
// are never compressed; they are small and must stay parseable even
// when a payload codec is unavailable.

// Compressor compresses and decompresses event-section bytes.
//
// Compress appends the compressed form of src to dst and returns the
// extended slice. Decompress appends exactly rawLen decompressed bytes
// to dst, erroring if src does not decode to exactly that length.
// Implementations must be safe for concurrent use.
type Compressor interface {
	// ID is the one-byte wire identifier (0 is reserved for "stored",
	// i.e. no compression).
	ID() byte
	// Name is the config-facing name ("flate").
	Name() string
	Compress(dst, src []byte) ([]byte, error)
	Decompress(dst, src []byte, rawLen int) ([]byte, error)
}

// Wire compressor ids.
const (
	compressorNone  byte = 0
	compressorFlate byte = 1
)

// flateCompressor implements Compressor with stdlib DEFLATE. Writers
// are pooled (flate.NewWriter allocates ~600 KiB of match tables), and
// so are readers (each holds tens of KiB of window and Huffman state),
// so a steady stream of compressed datagrams decodes without building
// either per frame.
type flateCompressor struct {
	writers sync.Pool
	readers sync.Pool // *flateReader
}

// flateReader is a pooled decompressor together with the source reader
// it is reset onto.
type flateReader struct {
	src bytes.Reader
	fr  io.ReadCloser
}

// NewFlateCompressor returns the built-in DEFLATE compressor (wire id
// 1). One instance is shared safely by any number of codecs.
func NewFlateCompressor() Compressor {
	f := &flateCompressor{}
	f.readers.New = func() any { return &flateReader{} }
	return f
}

func (f *flateCompressor) ID() byte     { return compressorFlate }
func (f *flateCompressor) Name() string { return "flate" }

// sliceWriter adapts an append target to io.Writer for flate.
type sliceWriter struct{ buf []byte }

func (w *sliceWriter) Write(p []byte) (int, error) {
	w.buf = append(w.buf, p...)
	return len(p), nil
}

func (f *flateCompressor) Compress(dst, src []byte) ([]byte, error) {
	sw := &sliceWriter{buf: dst}
	fw, _ := f.writers.Get().(*flate.Writer)
	if fw == nil {
		var err error
		fw, err = flate.NewWriter(sw, flate.DefaultCompression)
		if err != nil {
			return dst, err
		}
	} else {
		fw.Reset(sw)
	}
	_, werr := fw.Write(src)
	cerr := fw.Close()
	f.writers.Put(fw)
	if werr != nil {
		return dst, werr
	}
	if cerr != nil {
		return dst, cerr
	}
	return sw.buf, nil
}

func (f *flateCompressor) Decompress(dst, src []byte, rawLen int) ([]byte, error) {
	r, _ := f.readers.Get().(*flateReader)
	r.src.Reset(src)
	if r.fr == nil {
		r.fr = flate.NewReader(&r.src)
	} else if err := r.fr.(flate.Resetter).Reset(&r.src, nil); err != nil {
		return dst, err
	}
	out, err := inflate(r.fr, dst, rawLen)
	r.src.Reset(nil) // do not pin src while pooled
	f.readers.Put(r)
	return out, err
}

// inflate appends exactly rawLen bytes read from fr to dst, erroring if
// the stream is shorter or longer.
func inflate(fr io.Reader, dst []byte, rawLen int) ([]byte, error) {
	base := len(dst)
	dst = append(dst, make([]byte, rawLen)...)
	if _, err := io.ReadFull(fr, dst[base:]); err != nil {
		return dst[:base], fmt.Errorf("transport: corrupt compressed section: %w", err)
	}
	// The stream must end exactly at rawLen: a longer stream means the
	// advertised raw length lied.
	var probe [1]byte
	if n, err := fr.Read(probe[:]); n != 0 || err != io.EOF {
		return dst[:base], fmt.Errorf("transport: compressed section longer than advertised %d bytes", rawLen)
	}
	return dst, nil
}

// decompressors is the decode-side registry: every compressor a
// decoder accepts, keyed by wire id. Decoding is independent of the
// codec's own Compression setting — a node configured without
// compression still decodes compressed frames from peers that use it.
var decompressors = map[byte]Compressor{
	compressorFlate: NewFlateCompressor(),
}

// CompressorByName resolves a config-facing compression name. The empty
// string and "none" mean no compression (nil). Unknown names error.
func CompressorByName(name string) (Compressor, error) {
	switch name {
	case "", "none":
		return nil, nil
	case "flate":
		return NewFlateCompressor(), nil
	default:
		return nil, fmt.Errorf("transport: unknown compression %q (have \"none\", \"flate\")", name)
	}
}
