package resccl

import "github.com/resccl/resccl/internal/train"

// TrainConfig describes a Megatron-style training deployment for the
// end-to-end simulation of §5.5.
type TrainConfig = train.Config

// TrainModel is a transformer model configuration.
type TrainModel = train.ModelConfig

// TrainResult reports one simulated training iteration.
type TrainResult = train.Result

// The paper's model zoo: T5 models trained with data parallelism, GPT-3
// models with tensor parallelism.
var (
	ModelT5_220M   = train.T5_220M
	ModelT5_770M   = train.T5_770M
	ModelT5_3B     = train.T5_3B
	ModelGPT3_6_7B = train.GPT3_6_7B
	ModelGPT3_13B  = train.GPT3_13B
	ModelGPT3_22B  = train.GPT3_22B
	ModelGPT3_45B  = train.GPT3_45B
)

// SimulateTraining runs one training iteration of the configured model
// with the given backend serving all collectives, and returns iteration
// timing and throughput.
func SimulateTraining(cfg TrainConfig, kind BackendKind) (*TrainResult, error) {
	b, err := newBackend(kind)
	if err != nil {
		return nil, err
	}
	return train.Simulate(cfg, b)
}
