package main

import (
	"bytes"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"gftpvc/internal/gridftp"
)

// The traced pass installs these instruments at the seams the live
// engine already accepts: a store decorator in gridftp.Config.Store, a
// listener wrapper in Config.DataListen, and a dial wrapper passed with
// gridftp.WithDialFunc. The untraced pass installs none of them.

// storeStats counts one backend's streaming calls.
type storeStats struct {
	putRegionCalls, putRegionNS atomic.Int64
	readCalls, readNS           atomic.Int64
	finishPutNS                 atomic.Int64
}

func (s *storeStats) read(t0 time.Time) {
	s.readCalls.Add(1)
	s.readNS.Add(int64(time.Since(t0)))
}

// streamStore is the set of optional interfaces both backends offer.
type streamStore interface {
	gridftp.Store
	gridftp.ReaderAtStore
	gridftp.SnapshotStore
	gridftp.StreamPutter
}

// tracedStream counts a store's streaming calls and matches
// *gridftp.MemStore's optional interfaces exactly: ReaderAtStore,
// SnapshotStore and StreamPutter, but not PutAborter. The server picks
// its RETR and STOR paths by these interfaces, so the decorator must not
// add or hide one. Get is not counted: the server never calls it on a
// backend that offers snapshots, and the benchmark's own read-back goes
// to the undecorated store.
type tracedStream struct {
	streamStore
	st *storeStats
}

func (t *tracedStream) ReadObjectAt(name string, p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := t.streamStore.ReadObjectAt(name, p, off)
	t.st.read(t0)
	return n, err
}

// SnapshotObject counts reads through the pinned snapshot. The server
// closes a snapshot that is an io.Closer (DirStore's open file), so the
// wrapper is a Closer exactly when the snapshot is.
func (t *tracedStream) SnapshotObject(name string) (io.ReaderAt, int64, error) {
	r, size, err := t.streamStore.SnapshotObject(name)
	if err != nil {
		return r, size, err
	}
	ra := &countedReaderAt{r: r, st: t.st}
	if c, ok := r.(io.Closer); ok {
		return &countedReadCloserAt{countedReaderAt: ra, c: c}, size, nil
	}
	return ra, size, nil
}

func (t *tracedStream) PutRegion(name string, off int64, p []byte) error {
	t0 := time.Now()
	err := t.streamStore.PutRegion(name, off, p)
	t.st.putRegionCalls.Add(1)
	t.st.putRegionNS.Add(int64(time.Since(t0)))
	return err
}

func (t *tracedStream) FinishPut(name string, size int64) error {
	t0 := time.Now()
	err := t.streamStore.FinishPut(name, size)
	t.st.finishPutNS.Add(int64(time.Since(t0)))
	return err
}

// tracedDir matches *gridftp.DirStore: all four optional interfaces.
type tracedDir struct {
	*tracedStream
	gridftp.PutAborter
}

type countedReaderAt struct {
	r  io.ReaderAt
	st *storeStats
}

func (c *countedReaderAt) ReadAt(p []byte, off int64) (int, error) {
	t0 := time.Now()
	n, err := c.r.ReadAt(p, off)
	c.st.read(t0)
	return n, err
}

type countedReadCloserAt struct {
	*countedReaderAt
	c io.Closer
}

func (c *countedReadCloserAt) Close() error { return c.c.Close() }

// decorateStore wraps one of the two backends the workloads use.
func decorateStore(s gridftp.Store, st *storeStats) gridftp.Store {
	switch s := s.(type) {
	case *gridftp.MemStore:
		return &tracedStream{s, st}
	case *gridftp.DirStore:
		return &tracedDir{&tracedStream{s, st}, s}
	}
	panic("perfbench: no decorator for this store type")
}

// connStats counts control- and data-connection activity.
type connStats struct {
	ctlDials, ctlDialNS   atomic.Int64 // client-side control dials and their time
	ctlCmds, ctlBytes     atomic.Int64 // commands sent and bytes both ways, client side
	dataConns             atomic.Int64 // data connections servers accepted
	dataReads, dataWrites atomic.Int64 // Read/Write calls on wrapped data connections
	dataIONS              atomic.Int64 // time spent inside those calls

	mu       sync.Mutex
	ctlAddrs map[string]bool // server control addresses; any other dial is a data connection
}

func (c *connStats) addControlAddr(addr string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ctlAddrs == nil {
		c.ctlAddrs = map[string]bool{}
	}
	c.ctlAddrs[addr] = true
}

func (c *connStats) isControl(addr string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ctlAddrs[addr]
}

// listenData is the Config.DataListen hook.
func (c *connStats) listenData(network, addr string) (net.Listener, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, err
	}
	return &countedListener{Listener: ln, cs: c}, nil
}

// dial is the client dialer passed with gridftp.WithDialFunc.
func (c *connStats) dial(network, addr string) (net.Conn, error) {
	t0 := time.Now()
	conn, err := net.DialTimeout(network, addr, 10*time.Second)
	if err != nil {
		return nil, err
	}
	if c.isControl(addr) {
		c.ctlDials.Add(1)
		c.ctlDialNS.Add(int64(time.Since(t0)))
		return &controlConn{Conn: conn, cs: c}, nil
	}
	return &dataConn{Conn: conn, cs: c}, nil
}

// countedListener counts and wraps the data connections a server
// accepts.
type countedListener struct {
	net.Listener
	cs *connStats
}

func (l *countedListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.cs.dataConns.Add(1)
	return &dataConn{Conn: conn, cs: l.cs}, nil
}

// SetDeadline keeps the accept deadline the server arms on its data
// listeners.
func (l *countedListener) SetDeadline(t time.Time) error {
	if d, ok := l.Listener.(interface{ SetDeadline(time.Time) error }); ok {
		return d.SetDeadline(t)
	}
	return nil
}

type controlConn struct {
	net.Conn
	cs *connStats
}

func (c *controlConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.cs.ctlBytes.Add(int64(n))
	return n, err
}

func (c *controlConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.cs.ctlBytes.Add(int64(n))
	c.cs.ctlCmds.Add(int64(bytes.Count(p[:n], []byte{'\n'})))
	return n, err
}

type dataConn struct {
	net.Conn
	cs *connStats
}

func (c *dataConn) Read(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Read(p)
	c.cs.dataIONS.Add(int64(time.Since(t0)))
	c.cs.dataReads.Add(1)
	return n, err
}

func (c *dataConn) Write(p []byte) (int, error) {
	t0 := time.Now()
	n, err := c.Conn.Write(p)
	c.cs.dataIONS.Add(int64(time.Since(t0)))
	c.cs.dataWrites.Add(1)
	return n, err
}
