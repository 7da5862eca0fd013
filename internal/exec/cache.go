package exec

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
)

// Cache is an on-disk result store keyed by Job.Hash. Layout: one
// <hash>.json file per result under the cache directory, written
// atomically (temp file + rename), so concurrent workers — and concurrent
// processes sharing a cache directory — never observe partial entries.
// Entries never go stale by mutation: a job's hash covers every input its
// result depends on (including a schema version), so any semantic change
// keys new files and old ones are simply never read again.
type Cache struct {
	dir            string
	hits, misses   atomic.Int64
	writeFailures  atomic.Int64
	decodeFailures atomic.Int64
}

// OpenCache opens (creating if necessary) a cache rooted at dir.
func OpenCache(dir string) (*Cache, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exec: cache dir: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir returns the cache root directory.
func (c *Cache) Dir() string { return c.dir }

func (c *Cache) path(hash string) string {
	return filepath.Join(c.dir, hash+".json")
}

// Get returns the cached result for hash, if present and decodable.
func (c *Cache) Get(hash string) (Result, bool) {
	b, err := os.ReadFile(c.path(hash))
	if err != nil {
		c.misses.Add(1)
		return Result{}, false
	}
	var r Result
	if err := json.Unmarshal(b, &r); err != nil {
		// A corrupt entry (interrupted writer predating atomic rename,
		// disk damage) is treated as a miss and overwritten by Put.
		c.decodeFailures.Add(1)
		c.misses.Add(1)
		return Result{}, false
	}
	c.hits.Add(1)
	return r, true
}

// Put stores the result under hash. Storage failures are recorded but not
// surfaced: the caller already holds the computed result, and a cold cache
// next run is strictly a performance matter.
func (c *Cache) Put(hash string, r Result) {
	b, err := json.Marshal(r)
	if err == nil {
		err = WriteFileAtomic(c.path(hash), b)
	}
	if err != nil {
		c.writeFailures.Add(1)
	}
}

// WriteFileAtomic writes b to path through a temp file in the same
// directory and a rename, so a crash leaves the previous file or the new
// one, never a torn one. Every on-disk record, checkpoint and cache entry
// in the repository is written through it.
func WriteFileAtomic(path string, b []byte) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(b)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("write failed: %w", errors.Join(werr, cerr))
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// Stats reports cache traffic since Open.
func (c *Cache) Stats() (hits, misses int64) {
	return c.hits.Load(), c.misses.Load()
}
