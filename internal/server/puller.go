package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	remi "github.com/remi-kb/remi"
	"github.com/remi-kb/remi/internal/faults"
	"github.com/remi-kb/remi/internal/kb"
)

// Puller keeps one replica KB fresh from a snapshot source: it downloads
// the image to a temp file, opens it once as the mmap'd serving copy (the
// open validates the whole image, so a torn or corrupt pull never reaches
// the serving path) and only then atomically renames it into place. It
// plugs straight into Server.ReloadKB as the load func, which supplies the
// containment: a failed pull quarantines with backoff while the replica
// keeps serving its last-known-good generation, and an unchanged image
// (content-hash match) is a benign no-op that doesn't bump the generation
// or invalidate caches.
type Puller struct {
	name     string
	source   string // http(s) URL, file, or directory
	cacheDir string
	client   *http.Client
	timeout  time.Duration

	mu       sync.Mutex
	lastHash string
	loaded   bool
}

// NewPuller builds a puller for KB name from source, caching images under
// cacheDir. A source URL is fetched with GET (a trailing slash appends
// <name>.snap); a directory source reads <dir>/<name>.snap; anything else
// is a file path (useful when replicas share a snapshot volume).
func NewPuller(name, source, cacheDir string) *Puller {
	return &Puller{
		name:     name,
		source:   source,
		cacheDir: cacheDir,
		client:   &http.Client{},
		timeout:  60 * time.Second,
	}
}

// Name is the registry name of the KB this puller feeds.
func (p *Puller) Name() string { return p.name }

// CurrentPath is where the verified, currently-serving image lives.
func (p *Puller) CurrentPath() string { return filepath.Join(p.cacheDir, p.name+".snap") }

// Load performs one pull-verify-swap cycle. It has the signature
// Server.ReloadKB wants; returning ErrKBUnchanged tells the server
// the image didn't change.
func (p *Puller) Load() (*remi.System, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tmp, hash, err := p.fetch()
	if err != nil {
		return nil, err
	}
	defer os.Remove(tmp) // no-op once renamed into place
	if p.loaded && hash == p.lastHash {
		return nil, ErrKBUnchanged
	}
	// Verify by loading the copy that will serve: opening checks the
	// payload CRC, section bounds and ordering invariants, so only an image
	// that passed is renamed into place. The mapping survives the rename.
	if !kb.IsSnapshotFile(tmp) {
		return nil, fmt.Errorf("verifying pulled snapshot for KB %q: not a snapshot image", p.name)
	}
	sys, err := remi.Load(tmp)
	if err != nil {
		return nil, fmt.Errorf("verifying pulled snapshot for KB %q: %w", p.name, err)
	}
	if err := os.Rename(tmp, p.CurrentPath()); err != nil {
		sys.Close()
		return nil, fmt.Errorf("installing snapshot for KB %q: %w", p.name, err)
	}
	p.lastHash = hash
	p.loaded = true
	return sys, nil
}

// fetch downloads the source into a temp file in the cache dir and
// returns its path plus the content hash of what's on disk. The
// fetch.corrupt fault point fires after the bytes arrive and flips one
// byte of the temp file, so what a test exercises is the real checksum
// rejection downstream, not a simulated error.
func (p *Puller) fetch() (tmpPath, hash string, err error) {
	if err := os.MkdirAll(p.cacheDir, 0o755); err != nil {
		return "", "", err
	}
	tmp, err := os.CreateTemp(p.cacheDir, "."+p.name+".pull-*")
	if err != nil {
		return "", "", err
	}
	defer func() {
		tmp.Close()
		if err != nil {
			os.Remove(tmp.Name())
		}
	}()
	ctx, cancel := context.WithTimeout(context.Background(), p.timeout)
	defer cancel()

	src, rd, err := p.open(ctx)
	if err != nil {
		return "", "", err
	}
	defer rd.Close()
	if _, err = io.Copy(tmp, rd); err != nil {
		return "", "", fmt.Errorf("pulling %s: %w", src, err)
	}
	if ferr := faults.Fire(ctx, faults.FetchCorrupt); ferr != nil {
		if err = flipByte(tmp); err != nil {
			return "", "", err
		}
	}
	if _, err = tmp.Seek(0, io.SeekStart); err != nil {
		return "", "", err
	}
	h := sha256.New()
	if _, err = io.Copy(h, tmp); err != nil {
		return "", "", err
	}
	if err = tmp.Close(); err != nil {
		return "", "", err
	}
	return tmp.Name(), hex.EncodeToString(h.Sum(nil)), nil
}

// open resolves the source into a byte stream: URL, directory, or file.
func (p *Puller) open(ctx context.Context) (string, io.ReadCloser, error) {
	src := p.source
	if strings.HasPrefix(src, "http://") || strings.HasPrefix(src, "https://") {
		if strings.HasSuffix(src, "/") {
			src += p.name + ".snap"
		}
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, src, nil)
		if err != nil {
			return src, nil, err
		}
		resp, err := p.client.Do(req)
		if err != nil {
			return src, nil, fmt.Errorf("pulling %s: %w", src, err)
		}
		if resp.StatusCode != http.StatusOK {
			resp.Body.Close()
			return src, nil, fmt.Errorf("pulling %s: source answered %s", src, resp.Status)
		}
		return src, resp.Body, nil
	}
	if fi, err := os.Stat(src); err == nil && fi.IsDir() {
		src = filepath.Join(src, p.name+".snap")
	}
	f, err := os.Open(src)
	if err != nil {
		return src, nil, fmt.Errorf("pulling %s: %w", src, err)
	}
	return src, f, nil
}

// flipByte inverts the middle byte of the file — the minimal torn-transfer
// model: size unchanged, checksum broken.
func flipByte(f *os.File) error {
	fi, err := f.Stat()
	if err != nil {
		return err
	}
	if fi.Size() == 0 {
		return fmt.Errorf("pulled snapshot is empty")
	}
	off := fi.Size() / 2
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return err
	}
	b[0] ^= 0xFF
	_, err = f.WriteAt(b[:], off)
	return err
}
