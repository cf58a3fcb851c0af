package cftree

import (
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/cf"
)

// OutlierStore is where the tree pages out low-support clusters during
// rebuilds (Section 4.3.1: "small clusters (outliers) may be paged out to
// disk ... outliers need to be re-inserted into the complete tree to ensure
// that they are indeed outliers"). Implementations need not be safe for
// concurrent use; each tree owns its store.
type OutlierStore interface {
	// Put pages one cluster summary out.
	Put(a *cf.ACF) error
	// Drain returns every paged-out summary and empties the store.
	Drain() ([]*cf.ACF, error)
	// Len reports the number of summaries currently paged out.
	Len() int
	// Close releases any resources. The store is unusable afterwards.
	Close() error
}

// MemoryOutlierStore keeps paged-out summaries in memory. It is the
// default: correct, fast, and sufficient when the outlier volume is small
// (the paper: "the space allocated for infrequent clusters is a small
// fraction of the data set size").
type MemoryOutlierStore struct {
	acfs []*cf.ACF
}

// NewMemoryOutlierStore returns an empty in-memory store.
func NewMemoryOutlierStore() *MemoryOutlierStore { return &MemoryOutlierStore{} }

// Put implements OutlierStore.
func (s *MemoryOutlierStore) Put(a *cf.ACF) error {
	s.acfs = append(s.acfs, a)
	return nil
}

// Drain implements OutlierStore.
func (s *MemoryOutlierStore) Drain() ([]*cf.ACF, error) {
	out := s.acfs
	s.acfs = nil
	return out, nil
}

// Len implements OutlierStore.
func (s *MemoryOutlierStore) Len() int { return len(s.acfs) }

// Close implements OutlierStore.
func (s *MemoryOutlierStore) Close() error {
	s.acfs = nil
	return nil
}

// FileOutlierStore pages summaries to a temporary file using gob encoding,
// mirroring the paper's "paged out to disk" literally so the memory budget
// of Phase I is honored even when outliers are plentiful.
type FileOutlierStore struct {
	f    *os.File
	enc  *gob.Encoder
	n    int
	done bool
}

// NewFileOutlierStore creates a store backed by a new temp file in dir
// (or the system temp directory if dir is empty).
func NewFileOutlierStore(dir string) (*FileOutlierStore, error) {
	f, err := os.CreateTemp(dir, "acf-outliers-*.gob")
	if err != nil {
		return nil, fmt.Errorf("cftree: creating outlier file: %w", err)
	}
	return &FileOutlierStore{f: f, enc: gob.NewEncoder(f)}, nil
}

// Put implements OutlierStore.
func (s *FileOutlierStore) Put(a *cf.ACF) error {
	if s.done {
		return fmt.Errorf("cftree: outlier store is closed")
	}
	if err := s.enc.Encode(a); err != nil {
		return fmt.Errorf("cftree: encoding outlier: %w", err)
	}
	s.n++
	return nil
}

// Drain implements OutlierStore. It rewinds the file, decodes every
// summary, and truncates the file for reuse. gob fills an ACF field by
// field, which the ACF kernels reject, so each decoded summary comes
// back re-flattened through Clone. gob also cannot carry a nil map
// inside a slice: an untracked group's histogram decodes as an empty
// map, so empty histograms go back to nil first. That is exact, since a
// tracked group of a summary with N > 0 holds at least one key.
func (s *FileOutlierStore) Drain() ([]*cf.ACF, error) {
	if s.done {
		return nil, fmt.Errorf("cftree: outlier store is closed")
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("cftree: rewinding outlier file: %w", err)
	}
	dec := gob.NewDecoder(s.f)
	out := make([]*cf.ACF, 0, s.n)
	for i := 0; i < s.n; i++ {
		var a cf.ACF
		if err := dec.Decode(&a); err != nil {
			return nil, fmt.Errorf("cftree: decoding outlier %d: %w", i, err)
		}
		for g, hist := range a.NomCounts {
			if len(hist) == 0 {
				a.NomCounts[g] = nil
			}
		}
		out = append(out, a.Clone())
	}
	if err := s.f.Truncate(0); err != nil {
		return nil, fmt.Errorf("cftree: truncating outlier file: %w", err)
	}
	if _, err := s.f.Seek(0, io.SeekStart); err != nil {
		return nil, fmt.Errorf("cftree: rewinding outlier file: %w", err)
	}
	s.enc = gob.NewEncoder(s.f)
	s.n = 0
	return out, nil
}

// Len implements OutlierStore.
func (s *FileOutlierStore) Len() int { return s.n }

// Close implements OutlierStore, removing the backing file.
func (s *FileOutlierStore) Close() error {
	if s.done {
		return nil
	}
	s.done = true
	name := s.f.Name()
	if err := s.f.Close(); err != nil {
		os.Remove(name)
		return fmt.Errorf("cftree: closing outlier file: %w", err)
	}
	if err := os.Remove(name); err != nil {
		return fmt.Errorf("cftree: removing outlier file: %w", err)
	}
	return nil
}
