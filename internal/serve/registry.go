package serve

import (
	"errors"
	"fmt"
	"os"
	"sort"
	"sync"

	"cognitivearm/internal/eeg"
	"cognitivearm/internal/models"
	"cognitivearm/internal/tensor"
)

// Registry holds the fleet's shared classifiers. Each key is built exactly
// once — by training or by deserialising a saved model — no matter how many
// sessions or goroutines ask for it, and the result is handed out read-only.
// This replaces the seed's train-per-deploy shape: a thousand sessions on
// one model cost one training run and one copy of the weights.
type Registry struct {
	mu      sync.Mutex
	entries map[string]*regEntry
	// quant, when set, swaps every subsequently built or loaded model for its
	// quantized twin after the calibration gate passes (see EnableQuantization).
	quant *QuantPolicy
}

// QuantPolicy configures registry-wide quantized inference.
type QuantPolicy struct {
	// MinAgreement is the calibration gate threshold
	// (0 = models.DefaultMinAgreement).
	MinAgreement float64
	// Calibration builds the gate's window set for a model expecting
	// window×channels input. nil uses models.CalibrationWindows —
	// deterministic synthetic windows; supply recorded traffic for a
	// sharper gate.
	Calibration func(window, channels int) []*tensor.Matrix
}

// regEntry resolves exactly once: the goroutine that creates the entry runs
// the build and closes done; everyone else waits on done. (A sync.Once here
// would let a concurrent Get win the Do and poison the entry before the
// builder runs.)
type regEntry struct {
	done chan struct{}
	clf  models.Classifier
	macs int64
	err  error
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{entries: map[string]*regEntry{}}
}

// GetOrBuild returns the classifier for key, invoking build at most once per
// key across all callers (concurrent callers for the same key block until
// the first build finishes — singleflight semantics). build returns the
// classifier plus its per-inference MAC estimate for edge accounting.
func (r *Registry) GetOrBuild(key string, build func() (models.Classifier, int64, error)) (models.Classifier, int64, error) {
	r.mu.Lock()
	e, ok := r.entries[key]
	if !ok {
		e = &regEntry{done: make(chan struct{})}
		r.entries[key] = e
		r.mu.Unlock()
		e.clf, e.macs, e.err = build()
		if e.err != nil {
			// Leave the failed entry in place: retrying a deterministic
			// build would fail identically, and callers see the cause.
			e.err = fmt.Errorf("serve: build model %q: %w", key, e.err)
		} else if qc, qerr := r.maybeQuantize(e.clf); qerr != nil {
			// A twin that fails the agreement gate is a hard build error:
			// silently serving degraded labels is worse than not serving.
			e.clf, e.err = nil, fmt.Errorf("serve: quantize model %q: %w", key, qerr)
		} else {
			e.clf = qc
		}
		close(e.done)
		return e.clf, e.macs, e.err
	}
	r.mu.Unlock()
	<-e.done
	return e.clf, e.macs, e.err
}

// LoadFile deserialises any saved classifier (models.Save format — NN
// families, random forests, or registered ensembles) under key, once. MACs
// are derived from the stored spec where one exists.
func (r *Registry) LoadFile(key, path string) (models.Classifier, error) {
	clf, _, err := r.GetOrBuild(key, func() (models.Classifier, int64, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, 0, err
		}
		defer f.Close()
		c, err := models.Load(f)
		if err != nil {
			return nil, 0, err
		}
		return c, macsFor(c), nil
	})
	return clf, err
}

// EnableQuantization turns on quantized inference for every model built or
// loaded from this point on: after a successful build the registry quantizes
// the classifier (models.Quantize), gates it on calibration agreement, and
// hands out the quantized twin. Models with no quantized form (LSTM,
// Transformer, ensembles) are served exact; a twin that fails the gate fails
// the build. Already-resolved entries are unaffected — enable before loading
// models (NewHub with Config.Quantize does this at construction).
func (r *Registry) EnableQuantization(p QuantPolicy) {
	r.mu.Lock()
	r.quant = &p
	r.mu.Unlock()
}

// maybeQuantize applies the registry's quantization policy to a freshly
// built classifier, returning it unchanged when quantization is disabled or
// the model has no quantized form.
func (r *Registry) maybeQuantize(clf models.Classifier) (models.Classifier, error) {
	r.mu.Lock()
	p := r.quant
	r.mu.Unlock()
	if p == nil {
		return clf, nil
	}
	opt := models.QuantOptions{MinAgreement: p.MinAgreement}
	if p.Calibration != nil {
		opt.Calibration = p.Calibration(clf.WindowSize(), eeg.NumChannels)
	}
	qc, err := models.Quantize(clf, opt)
	if errors.Is(err, models.ErrQuantUnsupported) {
		return clf, nil // no quantized form: serve the exact f64 model
	}
	if err != nil {
		return nil, err
	}
	return qc, nil
}

// macsFor estimates per-inference MACs for classifiers that carry a spec.
func macsFor(c models.Classifier) int64 {
	switch v := c.(type) {
	case *models.NNClassifier:
		return models.OpsPerInference(v.Spec)
	case *models.RFClassifier:
		return models.OpsPerInference(v.Spec)
	case *models.QuantizedClassifier:
		return macsFor(v.Base)
	default:
		return 0
	}
}

// Resolved returns the successfully built classifiers and their MAC
// estimates. In-flight builds are skipped rather than waited for: the
// checkpoint path must never block behind a training run.
func (r *Registry) Resolved() (map[string]models.Classifier, map[string]int64) {
	r.mu.Lock()
	entries := make(map[string]*regEntry, len(r.entries))
	for k, e := range r.entries {
		entries[k] = e
	}
	r.mu.Unlock()
	clfs := make(map[string]models.Classifier)
	macs := make(map[string]int64)
	for k, e := range entries {
		select {
		case <-e.done:
			if e.err == nil {
				clfs[k] = e.clf
				macs[k] = e.macs
			}
		default:
		}
	}
	return clfs, macs
}

// Get returns the classifier for key, or ok=false when the key is unknown
// or its build failed. A concurrent in-flight GetOrBuild for the same key is
// waited for, so a successful Get never races the build.
func (r *Registry) Get(key string) (models.Classifier, int64, bool) {
	r.mu.Lock()
	e, ok := r.entries[key]
	r.mu.Unlock()
	if !ok {
		return nil, 0, false
	}
	<-e.done
	if e.err != nil {
		return nil, 0, false
	}
	return e.clf, e.macs, true
}

// Keys lists resolved and in-flight keys in sorted order.
func (r *Registry) Keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	keys := make([]string, 0, len(r.entries))
	for k := range r.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
